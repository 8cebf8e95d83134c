package uncertaindb

import (
	"fmt"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/workload"
)

// Determinism of morsel-driven parallel execution (acceptance criterion of
// the batch-execution redesign): the same query over inputs large enough to
// split into several morsels must produce the byte-identical answer table —
// same rows, same condition syntax, same ordering — at workers=1, 2 and 8,
// and every exact big.Rat tuple marginal must be bit-identical across
// worker counts and to the eager evaluator's. The eager evaluator's nested
// loop is quadratic, so it is compared on smaller instances of the same
// workloads that still span two morsels. The CI race job runs this under
// -race, so the parallel driver is also exercised for data races.
func TestParallelWorkersDeterministic(t *testing.T) {
	// A join+projection spine over >BatchSize rows: the scan splits into
	// morsels, the probe pipeline runs them concurrently, and the
	// projection merges groups across the morsel boundary.
	sizes := []struct {
		rows  int
		eager bool
	}{{1100, false}, {260, true}}
	for _, size := range sizes {
		env, join := workload.EquiJoin(size.rows, 4)
		q := ra.Project([]int{0, 3}, join)
		answers := make(map[int]*ctable.CTable)
		for _, workers := range []int{1, 2, 8} {
			res, err := ctable.EvalQueryEnvWithOptions(q, env,
				ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
			if err != nil {
				t.Fatalf("rows=%d workers=%d: %v", size.rows, workers, err)
			}
			answers[workers] = res
		}
		want := answers[1].String()
		if answers[2].String() != want || answers[8].String() != want {
			t.Fatalf("rows=%d: parallel execution changed the rendered answer (ordering or condition syntax)", size.rows)
		}
		if !size.eager {
			continue
		}
		// The hash path drops the eager answer's constant-false rows and
		// nothing else: the remaining rows must match as a multiset.
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
		for _, r := range answers[1].Rows() {
			kept[r.String()]--
		}
		for row, n := range kept {
			if n != 0 {
				t.Fatalf("rows=%d: row %s appears %d more times in the eager answer than in the batch answer", size.rows, row, n)
			}
		}
	}

	// Marginals: a symbolic workload with >BatchSize rows but few variables,
	// so exact lineage probabilities are cheap. Row i is guarded by one of
	// four shared variables, every answer tuple's lineage is a disjunction
	// spanning morsel boundaries, and the exact big.Rat marginal must agree
	// bit for bit across worker counts and with the eager evaluator.
	qm := ra.Project([]int{0},
		ra.Select(ra.Eq(ra.Col(1), ra.ConstInt(2)),
			ra.Join(ra.Rel("T"), ra.Rel("T"),
				ra.AndOf(ra.Eq(ra.Col(0), ra.Col(2)), ra.Eq(ra.Col(1), ra.Col(3))))))
	for _, size := range sizes {
		menv := ctable.Env{"T": guardedTable(size.rows)}
		marginals := make(map[string][]string)
		for _, workers := range []int{1, 2, 8} {
			res, err := ctable.EvalQueryEnvWithOptions(qm, menv,
				ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
			if err != nil {
				t.Fatalf("rows=%d workers=%d: %v", size.rows, workers, err)
			}
			marginals[fmt.Sprintf("workers=%d", workers)] = projectedMarginals(t, res)
		}
		if size.eager {
			eager, err := ctable.EvalQueryEnvEager(qm, menv, ctable.Options{Simplify: true})
			if err != nil {
				t.Fatal(err)
			}
			marginals["eager"] = projectedMarginals(t, eager)
		}
		want := marginals["workers=1"]
		for cfg, rats := range marginals {
			for i := range rats {
				if rats[i] != want[i] {
					t.Errorf("rows=%d %s: marginal of (%d) = %s, workers=1 = %s — not bit-identical",
						size.rows, cfg, i, rats[i], want[i])
				}
			}
		}
	}
}

// guardedTable builds the marginal workload of
// TestParallelWorkersDeterministic: rows ground tuples over 7×5 values, row
// i guarded by g(i mod 4) = 1.
func guardedTable(rows int) *ctable.CTable {
	dom := value.IntRange(1, 3)
	tab := ctable.New(2)
	for v := 0; v < 4; v++ {
		tab.SetDomain(fmt.Sprintf("g%d", v), dom)
	}
	for i := 0; i < rows; i++ {
		tab.AddRow(
			[]condition.Term{condition.ConstInt(int64(i % 7)), condition.ConstInt(int64(i % 5))},
			condition.Eq(condition.Var(fmt.Sprintf("g%d", i%4)), condition.ConstInt(1)))
	}
	return tab
}

// projectedMarginals returns the exact marginals of the tuples (0)..(6) of
// a unary answer, rendered as rationals.
func projectedMarginals(t *testing.T, res *ctable.CTable) []string {
	t.Helper()
	pc, err := pctable.UniformPCTable(res)
	if err != nil {
		t.Fatal(err)
	}
	exact := probcalc.NewExact(pc)
	var rats []string
	for k := int64(0); k < 7; k++ {
		rat, err := exact.ProbabilityRat(pc.Lineage(value.NewTuple(value.Int(k))))
		if err != nil {
			t.Fatalf("marginal of (%d): %v", k, err)
		}
		rats = append(rats, rat.RatString())
	}
	return rats
}
