package exec

import (
	"fmt"
	"strconv"
	"strings"

	"uncertaindb/internal/ra"
)

// This file is the physical side of the planning split: the execution
// strategies that replace the textbook nested-loop/pairwise-scan
// definitions, and Explain's rendering of the physical plan.
//
//   - A selection over a cross product — the shape of every θ-join after
//     rewriting — runs as a symbolic hash join when SplitJoinPredicate
//     extracts cross-side equi-join keys (joinStrategy): the build (right)
//     side is partitioned on the ground values of its key columns. Rows
//     whose key cells are variable terms cannot be placed in a value
//     bucket; they fall into a residual bucket that every probe also scans
//     nested-loop, so symbolic matches (x = 5, x = y) are still produced
//     and Mod is preserved exactly. Probe rows with variable key cells scan
//     the whole build side for the same reason.
//   - Difference and intersection partition their materialized right side
//     by ground tuple so a ground left row only pairs with rows that can
//     possibly equal it; skipped pairs are exactly those whose equality
//     condition is constant-false, which contribute a trivially-true
//     conjunct (difference) or a false disjunct (intersection).
//
// The pairs a hash operator skips all carry conditions with a
// constant-false conjunct, so the represented set of instances and every
// tuple marginal are identical to the nested-loop path; only the syntactic
// answer table differs (it no longer contains rows whose condition is the
// constant false). Options.NoHash restores the nested-loop path, which
// remains byte-identical to the eager evaluator.

// OpStats counts the work the physical operators did while executing plans.
// Counters are written without synchronization: share one OpStats across
// concurrent runs only if aggregated afterwards (the engine allocates one
// per compilation).
type OpStats struct {
	// RowsIn is the number of rows the counting operators (joins, cross
	// products, pipeline breakers) consumed from their inputs.
	RowsIn uint64 `json:"rowsIn"`
	// RowsOut is the number of rows those operators emitted.
	RowsOut uint64 `json:"rowsOut"`
	// HashJoins / NestedLoopJoins count how many σ(×)/join operators were
	// compiled to the symbolic hash join vs the nested-loop fallback.
	HashJoins       uint64 `json:"hashJoins"`
	NestedLoopJoins uint64 `json:"nestedLoopJoins"`
	// HashProbes counts bucket lookups by ground probe rows (joins and
	// hash-partitioned difference/intersection).
	HashProbes uint64 `json:"hashProbes"`
	// ResidualHits counts candidate pairs drawn from the residual path:
	// build rows with variable key cells that every probe must scan, plus
	// whole-side scans forced by probe rows with variable key cells.
	ResidualHits uint64 `json:"residualHits"`
	// Batches counts batch-stage applications executed by the vectorized
	// engine (one per streaming stage per morsel).
	Batches uint64 `json:"batches"`
	// Morsels counts the morsel tasks the parallel driver ran (fixed-size
	// scan splits pushed through fused operator pipelines).
	Morsels uint64 `json:"morsels"`
}

// Add accumulates o into s.
func (s *OpStats) Add(o OpStats) {
	s.RowsIn += o.RowsIn
	s.RowsOut += o.RowsOut
	s.HashJoins += o.HashJoins
	s.NestedLoopJoins += o.NestedLoopJoins
	s.HashProbes += o.HashProbes
	s.ResidualHits += o.ResidualHits
	s.Batches += o.Batches
	s.Morsels += o.Morsels
}

// merge is the nil-receiver Add used when batch tasks fold their local
// counters into the run's (possibly absent) stats.
func (s *OpStats) merge(o OpStats) {
	if s != nil {
		s.Add(o)
	}
}

// The nil-receiver increment helpers let operators count unconditionally.

func (s *OpStats) in(n uint64) {
	if s != nil {
		s.RowsIn += n
	}
}

func (s *OpStats) out(n uint64) {
	if s != nil {
		s.RowsOut += n
	}
}

func (s *OpStats) probe() {
	if s != nil {
		s.HashProbes++
	}
}

func (s *OpStats) residual(n uint64) {
	if s != nil {
		s.ResidualHits += n
	}
}

// joinStrategy decides how σ_pred(left × right) executes: it returns the
// equi-join keys of the symbolic hash join, or nil for the nested-loop
// cross+select composition (no cross-side equi conjunct, or NoHash), and
// the left arity at which the joined rows split. evalJoin executes and
// Explain renders the same decision.
func joinStrategy(left ra.Query, pred ra.Predicate, ar ra.ArityEnv, opts Options) (keys []JoinKey, la int) {
	la, err := ra.Arity(left, ar)
	if err != nil {
		return nil, -1
	}
	if !opts.NoHash {
		keys, _ = SplitJoinPredicate(pred, la)
	}
	return keys, la
}

// mergeAscending merges two ascending index lists into buf.
func mergeAscending(buf, a, b []int32) []int32 {
	buf = buf[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			buf = append(buf, a[i])
			i++
		} else {
			buf = append(buf, b[j])
			j++
		}
	}
	buf = append(buf, a[i:]...)
	return append(buf, b[j:]...)
}

// Explain renders the physical plan Run executes for q — one line per
// operator, children indented, every operator prefixed "batch-" — after
// applying the same validation and rewriting Run would. It walks the
// rewritten query without executing it; the labels are the ones Analyze
// attaches to its plan nodes. It is what the engine caches alongside a
// compiled plan and what /v1/query returns in the "plan" field.
func Explain(q ra.Query, env Env, opts Options) (string, error) {
	arities := modelArities(env)
	if _, err := ra.Arity(q, arities); err != nil {
		return "", err
	}
	if opts.Rewrite {
		q = Rewrite(q, arities)
	}
	var b strings.Builder
	explainOp(&b, q, arities, opts, 0)
	return strings.TrimRight(b.String(), "\n"), nil
}

func explainOp(b *strings.Builder, q ra.Query, ar ra.ArityEnv, opts Options, depth int) {
	label, inputs := planOp(q, ar, opts)
	fmt.Fprintf(b, "%s%s%s\n", strings.Repeat("  ", depth), labelPrefix, label)
	for _, in := range inputs {
		explainOp(b, in, ar, opts, depth+1)
	}
}

// planOp returns the label of the physical operator at the root of q and
// that operator's inputs in plan (left-to-right) order. A nested-loop join
// is two operators, a selection over a cross product, exactly as evalJoin
// composes it.
func planOp(q ra.Query, ar ra.ArityEnv, opts Options) (string, []ra.Query) {
	switch q := q.(type) {
	case ra.BaseRel:
		return labelScan(q.Name), nil
	case ra.ConstRel:
		return labelConst(len(q.Rel.Tuples())), nil
	case ra.SelectQ:
		if cq, ok := q.Input.(ra.CrossQ); ok {
			return planJoin(cq.Left, cq.Right, q.Pred, ar, opts)
		}
		return labelSelect(q.Pred), []ra.Query{q.Input}
	case ra.ProjectQ:
		return labelProject(q.Cols), []ra.Query{q.Input}
	case ra.CrossQ:
		return labelCross, []ra.Query{q.Left, q.Right}
	case ra.JoinQ:
		return planJoin(q.Left, q.Right, q.Pred, ar, opts)
	case ra.UnionQ:
		return labelUnion, []ra.Query{q.Left, q.Right}
	case ra.DiffQ:
		return labelDiff(opts), []ra.Query{q.Left, q.Right}
	case ra.IntersectQ:
		return labelIntersect(opts), []ra.Query{q.Left, q.Right}
	default:
		return fmt.Sprintf("%T", q), nil
	}
}

func planJoin(left, right ra.Query, pred ra.Predicate, ar ra.ArityEnv, opts Options) (string, []ra.Query) {
	if keys, _ := joinStrategy(left, pred, ar, opts); len(keys) > 0 {
		return labelHashJoin(keys, pred), []ra.Query{left, right}
	}
	return labelSelect(pred), []ra.Query{ra.CrossQ{Left: left, Right: right}}
}

const (
	// labelPrefix marks every plan operator as executed by the batch
	// engine; it is part of the /v1/query "plan" text.
	labelPrefix = "batch-"
	labelCross  = "nested-loop-cross"
	labelUnion  = "union"
)

func labelScan(name string) string { return "scan(" + name + ")" }

func labelConst(n int) string { return fmt.Sprintf("const(%d tuples)", n) }

func labelSelect(pred ra.Predicate) string { return fmt.Sprintf("select[%s]", pred) }

func labelProject(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = strconv.Itoa(c + 1)
	}
	return "project[" + strings.Join(parts, ",") + "]"
}

func labelHashJoin(keys []JoinKey, pred ra.Predicate) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("$%d=$%d", k.Left+1, k.Right+1)
	}
	return fmt.Sprintf("hash-join[%s] pred=%s build=right", strings.Join(parts, ","), pred)
}

func labelDiff(opts Options) string { return "diff(" + hashedOrScan(opts) + ")" }

func labelIntersect(opts Options) string { return "intersect(" + hashedOrScan(opts) + ")" }

func hashedOrScan(opts Options) string {
	if opts.NoHash {
		return "pairwise"
	}
	return "hash-partitioned"
}
