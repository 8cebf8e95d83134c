package exec_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
)

var updateAnalyze = flag.Bool("update-analyze", false, "rewrite testdata/golden/analyze.json")

// analyzeGridQuery exercises a join (hash or nested-loop depending on
// options), a selection and a projection — every operator class whose label
// and counters the analyzed plan reports.
var analyzeGridQuery = ra.Project([]int{1, 3},
	ra.Select(ra.Eq(ra.Col(0), ra.Col(2)),
		ra.Join(ra.Rel("R"), ra.Rel("S"), ra.True())))

// The analyzed plan tree is deterministic once timings are zeroed: operator
// labels, row/probe/residual counters and tree shape depend only on the
// (rewrites × hash) configuration, never on scheduling. The golden file
// pins all four configurations; every configuration is also executed twice
// and must marshal byte-identically run-to-run.
func TestAnalyzeGolden(t *testing.T) {
	env := joinTables().ExecEnv()
	type entry struct {
		Config string         `json:"config"`
		Plan   *exec.PlanNode `json:"plan"`
	}
	var entries []entry
	for _, rewrite := range []bool{false, true} {
		for _, hash := range []bool{false, true} {
			opts := exec.Options{
				Simplify: true,
				Rewrite:  rewrite,
				NoHash:   !hash,
				Workers:  1, // deterministic morsel counts
			}
			name := fmt.Sprintf("rewrite=%v/hash=%v", rewrite, hash)
			run := func() []byte {
				an, err := exec.Analyze(analyzeGridQuery, env, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				an.ZeroTimings()
				data, err := json.MarshalIndent(an, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			first, second := run(), run()
			if !bytes.Equal(first, second) {
				t.Errorf("%s: analyzed plan differs between identical runs:\n%s\n---\n%s", name, first, second)
			}
			var plan exec.PlanNode
			if err := json.Unmarshal(first, &plan); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, entry{Config: name, Plan: &plan})
		}
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", "analyze.json")
	if *updateAnalyze {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-analyze to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("analyzed plans diverge from golden (regenerate with -update-analyze and review):\ngot:\n%s", got)
	}
}

// Explain walks the rewritten query while Analyze labels the nodes it
// executes: the indented Explain lines must be Analyze's operator labels in
// pre-order at their tree depths, for every analyze-grid configuration, on
// the grid query and on randomized queries.
func TestExplainMatchesAnalyze(t *testing.T) {
	check := func(name string, q ra.Query, env exec.Env, opts exec.Options) {
		t.Helper()
		plan, err := exec.Explain(q, env, opts)
		if err != nil {
			t.Fatalf("%s: explain: %v", name, err)
		}
		an, err := exec.Analyze(q, env, opts)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		var lines []string
		var walk func(n *exec.PlanNode, depth int)
		walk = func(n *exec.PlanNode, depth int) {
			lines = append(lines, strings.Repeat("  ", depth)+n.Op)
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(an, 0)
		if got := strings.Join(lines, "\n"); got != plan {
			t.Fatalf("%s: Explain and Analyze disagree for %s\nexplain:\n%s\nanalyze:\n%s", name, q, plan, got)
		}
	}
	type input struct {
		name string
		q    ra.Query
		env  exec.Env
	}
	inputs := []input{{"grid", analyzeGridQuery, joinTables().ExecEnv()}}
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		env := ctable.Env{
			"A": randomCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomCTable(rng, 2, 2, []string{"y", "z"}),
		}.ExecEnv()
		inputs = append(inputs, input{fmt.Sprintf("trial %d", trial), randomQuery(rng, 2, 3), env})
	}
	for _, rewrite := range []bool{false, true} {
		for _, hash := range []bool{false, true} {
			opts := exec.Options{Simplify: true, Rewrite: rewrite, NoHash: !hash, Workers: 1}
			for _, in := range inputs {
				check(fmt.Sprintf("rewrite=%v/hash=%v/%s", rewrite, hash, in.name), in.q, in.env, opts)
			}
		}
	}
}
