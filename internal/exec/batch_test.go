package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/workload"
)

// Off the byte-identical cell (rewrites off, hash path off, pinned by
// TestCoreMatchesEagerSyntax), the operator core is checked against the
// eager evaluator semantically: on randomized multi-table environments and
// queries, across simplify × the other rewrite/hash cells, the answer is
// byte-identical at workers=1 and workers=4 and represents the same
// incomplete database (Mod) as the eager answer.
func TestBatchWorkersMatchEagerMod(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		env := ctable.Env{
			"A": randomCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomCTable(rng, 2, 2, []string{"y", "z"}),
		}
		q := randomQuery(rng, 2, 3)
		for _, simplify := range []bool{true, false} {
			eager, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: simplify})
			if err != nil {
				t.Fatalf("trial %d: eager: %v", trial, err)
			}
			want, err := eager.Mod()
			if err != nil {
				t.Fatalf("trial %d: Mod(eager): %v", trial, err)
			}
			for _, rewrite := range []bool{false, true} {
				for _, hash := range []bool{false, true} {
					if !rewrite && !hash {
						continue
					}
					cell := fmt.Sprintf("simplify=%v rewrite=%v hash=%v", simplify, rewrite, hash)
					opts := ctable.Options{Simplify: simplify, Rewrite: rewrite, NoHash: !hash, Workers: 1}
					seq, err := ctable.EvalQueryEnvWithOptions(q, env, opts)
					if err != nil {
						t.Fatalf("trial %d (%s): workers=1: %v", trial, cell, err)
					}
					opts.Workers = 4
					par, err := ctable.EvalQueryEnvWithOptions(q, env, opts)
					if err != nil {
						t.Fatalf("trial %d (%s): workers=4: %v", trial, cell, err)
					}
					if seq.String() != par.String() {
						t.Fatalf("trial %d (%s): workers=1 and workers=4 answers differ for %s\nworkers=1:\n%s\nworkers=4:\n%s",
							trial, cell, q, seq, par)
					}
					got, err := seq.Mod()
					if err != nil {
						t.Fatalf("trial %d (%s): Mod: %v", trial, cell, err)
					}
					if !got.Equal(want) {
						t.Fatalf("trial %d (%s): answer Mod differs from eager for %s\ncore:\n%s\neager:\n%s",
							trial, cell, q, seq, eager)
					}
				}
			}
		}
	}
}

// Inputs larger than one morsel exercise the parallel driver proper: the
// E15/E16 equi-join workload at 1500 rows per side splits into several
// morsels, and a projection on top adds a cross-morsel merge. Every worker
// count must produce the byte-identical answer. The eager evaluator's
// nested loop is quadratic, so it checks a 300-row instance (two morsels
// per side) of the same query shape.
func TestBatchMultiMorselDeterministic(t *testing.T) {
	env, join := workload.EquiJoin(1500, 8)
	q := ra.Project([]int{0, 3}, join)
	var want string
	for _, workers := range []int{1, 2, 8} {
		res, err := ctable.EvalQueryEnvWithOptions(q, env,
			ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced a different answer than workers=1", workers)
		}
	}

	env, join = workload.EquiJoin(300, 2)
	q = ra.Project([]int{0, 3}, join)
	eager, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		res, err := ctable.EvalQueryEnvWithOptions(q, env,
			ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertMatchesEager(t, fmt.Sprintf("workers=%d", workers), res, eager)
	}
}

// assertMatchesEager checks a hash-path answer against the eager answer to
// the same query: the answer must consist of exactly the eager rows whose
// condition is not the constant false (as a multiset — projection groups
// may surface in another order), and every possible tuple must have the
// same exact big.Rat marginal. A constant-false row adds a false disjunct
// to every lineage it enters, so the eager marginals are computed without
// those rows.
func assertMatchesEager(t *testing.T, label string, got, eager *ctable.CTable) {
	t.Helper()
	kept := ctable.New(eager.Arity())
	eager.EachDomain(func(x condition.Variable, d *value.Domain) { kept.SetDomain(string(x), d) })
	count := make(map[string]int)
	for _, r := range eager.Rows() {
		if _, isFalse := r.Cond.(condition.FalseCond); !isFalse {
			kept.AddRow(r.Terms, r.Cond)
			count[r.String()]++
		}
	}
	for _, r := range got.Rows() {
		count[r.String()]--
	}
	for row, n := range count {
		if n != 0 {
			t.Fatalf("%s: row %s appears %d more times in the eager answer than in the batch answer", label, row, n)
		}
	}
	gotRats, wantRats := exactMarginals(t, got), exactMarginals(t, kept)
	if len(gotRats) != len(wantRats) {
		t.Fatalf("%s: %d possible tuples, eager has %d", label, len(gotRats), len(wantRats))
	}
	for tp, want := range wantRats {
		if gotRats[tp] != want {
			t.Fatalf("%s: tuple %s: marginal %s, eager %s", label, tp, gotRats[tp], want)
		}
	}
}

// exactMarginals returns the exact marginal of every possible tuple of an
// answer under uniform variable distributions, keyed by tuple.
func exactMarginals(t *testing.T, res *ctable.CTable) map[string]string {
	t.Helper()
	pc, err := pctable.UniformPCTable(res)
	if err != nil {
		t.Fatal(err)
	}
	exact := probcalc.NewExact(pc)
	possible, err := pc.PossibleTuples()
	if err != nil {
		t.Fatal(err)
	}
	rats := make(map[string]string, len(possible))
	for _, tp := range possible {
		rat, err := exact.ProbabilityRat(pc.Lineage(tp))
		if err != nil {
			t.Fatalf("marginal of %s: %v", tp, err)
		}
		rats[tp.String()] = rat.RatString()
	}
	return rats
}

// A shared worker pool bounds the extra goroutines across evaluations
// without changing any answer: with a drained 1-slot pool the run degrades
// to its own goroutine and still produces the byte-identical result.
func TestBatchSharedPoolDeterministic(t *testing.T) {
	env, join := workload.EquiJoin(1100, 4)
	q := ra.Project([]int{0, 3}, join)
	want, err := ctable.EvalQueryEnvWithOptions(q, env,
		ctable.Options{Simplify: true, Rewrite: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{1, 2} {
		pool := exec.NewWorkerPool(slots)
		got, err := ctable.EvalQueryEnvWithOptions(q, env,
			ctable.Options{Simplify: true, Rewrite: true, Workers: 8, Pool: pool})
		if err != nil {
			t.Fatalf("pool=%d: %v", slots, err)
		}
		if got.String() != want.String() {
			t.Fatalf("pool=%d: pooled run produced a different answer", slots)
		}
	}
}

// The batch operators count the rows in/out, probes, residual hits and join
// strategy the removed tuple-at-a-time engine counted on the same plan,
// plus the work units of the vectorized driver (batches, morsels). Totals
// must not depend on the worker count.
func TestBatchCountersMatchTuple(t *testing.T) {
	env := joinTables()
	want := exec.OpStats{RowsIn: 10, RowsOut: 12, HashJoins: 1, HashProbes: 4, ResidualHits: 9, Batches: 1, Morsels: 1}
	for _, workers := range []int{1, 4} {
		var got exec.OpStats
		if _, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env,
			ctable.Options{Simplify: true, Workers: workers, Stats: &got}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: counters %+v, want %+v", workers, got, want)
		}
	}
}

// Errors surface as the eager evaluator reports them: an ordering
// comparison applied to a variable term fails with the same message.
func TestBatchErrorParity(t *testing.T) {
	tab := ctable.New(1)
	tab.SetDomain("x", value.IntRange(1, 3))
	tab.AddRow([]condition.Term{condition.Var("x")}, nil)
	q := ra.Select(ra.Cmp{Left: ra.Col(0), Op: ra.OpLt, Right: ra.ConstInt(2)}, ra.Rel("T"))
	env := ctable.Env{"T": tab}
	_, batchErr := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true})
	_, eagerErr := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
	if batchErr == nil || eagerErr == nil {
		t.Fatalf("expected errors, got batch=%v eager=%v", batchErr, eagerErr)
	}
	if batchErr.Error() != eagerErr.Error() {
		t.Errorf("error mismatch:\nbatch: %v\neager: %v", batchErr, eagerErr)
	}
	if !strings.Contains(batchErr.Error(), "ordering comparison") {
		t.Errorf("unexpected error: %v", batchErr)
	}
}

// Explain marks every operator with the batch engine's "batch-" prefix.
func TestExplainBatchPrefix(t *testing.T) {
	env := joinTables().ExecEnv()
	plan, err := exec.Explain(equiJoinQuery, env, exec.Options{Simplify: true, Rewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "batch-hash-join[$1=$1]") || !strings.Contains(plan, "batch-scan(R)") {
		t.Errorf("batch plan missing batch operators:\n%s", plan)
	}
}

// Sanity for the benchmark workload shapes: the batch hash join on the
// equi-join workload emits the same row multiset as the eager evaluator's
// non-false rows at every measured size.
func TestBatchEquiJoinAgainstEager(t *testing.T) {
	for _, rows := range []int{64, 300} {
		env, q := workload.EquiJoin(rows, 4)
		batch, err := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true, Rewrite: true})
		if err != nil {
			t.Fatal(err)
		}
		eager, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatal(err)
		}
		kept := make(map[string]int)
		for _, r := range eager.Rows() {
			if _, isFalse := r.Cond.(condition.FalseCond); !isFalse {
				kept[r.String()]++
			}
		}
		for _, r := range batch.Rows() {
			key := r.String()
			if kept[key] == 0 {
				t.Fatalf("rows=%d: batch emitted %s absent from eager's non-false rows", rows, key)
			}
			kept[key]--
		}
		for key, n := range kept {
			if n != 0 {
				t.Fatalf("rows=%d: batch dropped %d copies of %s", rows, n, key)
			}
		}
	}
}
