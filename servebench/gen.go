package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The generated data follows the paper's introductory pc-table, repeated
// once per group g:
//
//	row 'Ag', xg                          Alice takes one of three courses
//	row 'Bg', xg | xg = 'c..' || xg = '..' Bob takes the same course if it is
//	                                      one of the last two (the "labs")
//	row 'Tg', 'c..' | tg = 1              Theo takes a fixed course, sometimes
//	                                      unconditionally (a certain row)
//
// Every probability is a whole number of twentieths, so the decimal literals
// in the scripts are exact and the closed-form marginals below need nothing
// beyond float64 sums and products.

const nCourses = 12 // distinct course names c00..c11
const nDepts = 4    // Dept maps every course to one of d0..d3

type group struct {
	dom  [3]int // course indexes in xg's support; Bob's labs are dom[1], dom[2]
	p    [3]int // P(xg = dom[i]) in twentieths, each >= 1, summing to 20
	theo int    // Theo's course index
	q    int    // P(tg = 1) in twentieths; 20 means the row has no condition
}

// model is one generated courses table together with the Dept mapping, and
// the certain rows a write workload has inserted since loading.
type model struct {
	table   string // Takes table name
	dept    string // Dept table name
	groups  []group
	deptOf  [nCourses]int
	added   map[string]int // inserted student -> course index
	nLoaded int
}

// newModel generates nGroups groups. The structure is the same for every
// seed: each course lies in the same number of Alice supports and is
// Theo's course equally often, and every tenth Theo row is certain. The
// seed picks the course labels (and with them the Dept mapping), which
// groups are certain and every probability, so different seeds give different answers at the
// same cost.
func newModel(rng *rand.Rand, table, dept string, nGroups int) *model {
	m := &model{table: table, dept: dept, added: map[string]int{}}
	label := rng.Perm(nCourses)
	for i, c := range label {
		m.deptOf[c] = i % nDepts
	}
	certain := rng.Intn(10)
	for g := 0; g < nGroups; g++ {
		var gr group
		base, step := g%nCourses, 1+(g/nCourses)%5
		gr.dom = [3]int{label[base], label[(base+step)%nCourses], label[(base+2*step)%nCourses]}
		a := 1 + rng.Intn(18)   // 1..18
		b := 1 + rng.Intn(19-a) // leaves at least 1 for the third
		gr.p = [3]int{a, b, 20 - a - b}
		gr.theo = label[(5*g+g/nCourses)%nCourses]
		if g%10 == certain {
			gr.q = 20
		} else {
			gr.q = 1 + rng.Intn(19)
		}
		m.groups = append(m.groups, gr)
	}
	m.nLoaded = 3 * nGroups
	return m
}

func course(c int) string { return fmt.Sprintf("c%02d", c) }

// twentieths renders k/20 as an exact decimal literal.
func twentieths(k int) string {
	if k == 20 {
		return "1"
	}
	return fmt.Sprintf("0.%02d", 5*k)
}

// takesScript renders the Takes table in the table-script syntax.
func (m *model) takesScript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table %s arity 2\n", m.table)
	for g, gr := range m.groups {
		fmt.Fprintf(&b, "row 'A%d', x%d\n", g, g)
		fmt.Fprintf(&b, "row 'B%d', x%d | x%d = '%s' || x%d = '%s'\n", g, g, g, course(gr.dom[1]), g, course(gr.dom[2]))
		if gr.q == 20 {
			fmt.Fprintf(&b, "row 'T%d', '%s'\n", g, course(gr.theo))
		} else {
			fmt.Fprintf(&b, "row 'T%d', '%s' | t%d = 1\n", g, course(gr.theo), g)
		}
	}
	for g, gr := range m.groups {
		fmt.Fprintf(&b, "dist x%d = {'%s':%s, '%s':%s, '%s':%s}\n", g,
			course(gr.dom[0]), twentieths(gr.p[0]), course(gr.dom[1]), twentieths(gr.p[1]), course(gr.dom[2]), twentieths(gr.p[2]))
		if gr.q != 20 {
			fmt.Fprintf(&b, "dist t%d = {0:%s, 1:%s}\n", g, twentieths(20-gr.q), twentieths(gr.q))
		}
	}
	return b.String()
}

// deptScript renders the certain Dept(course, dept) table.
func (m *model) deptScript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table %s arity 2\n", m.dept)
	for c := 0; c < nCourses; c++ {
		fmt.Fprintf(&b, "row '%s', 'd%d'\n", course(c), m.deptOf[c])
	}
	return b.String()
}

// outcome is one way a row can produce a tuple (student, course): the
// probability that it does. Each student has exactly one row, so a
// (student, course) pair has at most one outcome and the outcomes of one
// student are mutually exclusive.
type outcome struct {
	student string
	course  int
	p       float64
}

func (m *model) outcomes(visit func(outcome)) {
	for g, gr := range m.groups {
		for i := 0; i < 3; i++ {
			visit(outcome{fmt.Sprintf("A%d", g), gr.dom[i], float64(gr.p[i]) / 20})
		}
		for i := 1; i < 3; i++ {
			visit(outcome{fmt.Sprintf("B%d", g), gr.dom[i], float64(gr.p[i]) / 20})
		}
		visit(outcome{fmt.Sprintf("T%d", g), gr.theo, float64(gr.q) / 20})
	}
	for s, c := range m.added {
		visit(outcome{s, c, 1})
	}
}

// want is an expected answer: tuple key ("v1|v2|...") -> marginal. Only
// tuples with a positive marginal are present.
type want map[string]float64

// query is one generated request with its closed-form expected answer.
type query struct {
	kind string // "lookup", "scan" or "adhoc"
	text string
	want func(*model) want
}

func lookupQuery(table, student string) query {
	return query{"lookup", fmt.Sprintf("select[$1 = '%s'](%s)", student, table), func(m *model) want {
		w := want{}
		m.outcomes(func(o outcome) {
			if o.student == student {
				w[student+"|"+course(o.course)] = o.p
			}
		})
		return w
	}}
}

// groupQuery asks which courses anyone of group g takes. Alice's and Bob's
// rows share xg (Bob's row implies Alice's), Theo's row is independent, so
// P[c] = 1 - (1 - P(xg = c)) * (1 - [Theo's course = c] * P(tg = 1)).
func groupQuery(table string, g int) query {
	text := fmt.Sprintf("project[2](select[$1 = 'A%d' || $1 = 'B%d' || $1 = 'T%d'](%s))", g, g, g, table)
	return query{"lookup", text, func(m *model) want {
		gr := m.groups[g]
		w := want{}
		for c := 0; c < nCourses; c++ {
			px, pt := 0.0, 0.0
			for i := 0; i < 3; i++ {
				if gr.dom[i] == c {
					px = float64(gr.p[i]) / 20
				}
			}
			if gr.theo == c {
				pt = float64(gr.q) / 20
			}
			if p := 1 - (1-px)*(1-pt); p > 0 {
				w[course(c)] = p
			}
		}
		return w
	}}
}

func scanQuery(table string, c int, project bool) query {
	text := fmt.Sprintf("select[$2 = '%s'](%s)", course(c), table)
	if project {
		text = fmt.Sprintf("project[1](%s)", text)
	}
	return query{"scan", text, func(m *model) want {
		w := want{}
		m.outcomes(func(o outcome) {
			if o.course != c {
				return
			}
			if project {
				w[o.student] = o.p
			} else {
				w[o.student+"|"+course(c)] = o.p
			}
		})
		return w
	}}
}

// adhocQuery is the read_adhoc shape: a selection over Takes that drops one
// student and one course, joined with Dept on the course, projected to
// (student, dept). A student's outcomes are exclusive, so the marginal of
// (s, d) is the sum over s's remaining courses in d.
func adhocQuery(m *model, student string, c int) query {
	text := fmt.Sprintf("project[1,4](select[$1 != '%s' && $2 != '%s'](%s) join[$2 = $3] %s)", student, course(c), m.table, m.dept)
	return query{"adhoc", text, func(m *model) want {
		w := want{}
		m.outcomes(func(o outcome) {
			if o.student != student && o.course != c {
				w[fmt.Sprintf("%s|d%d", o.student, m.deptOf[o.course])] += o.p
			}
		})
		return w
	}}
}

// students lists every loaded student name in group order.
func (m *model) students() []string {
	out := make([]string, 0, 3*len(m.groups))
	for g := range m.groups {
		out = append(out, fmt.Sprintf("A%d", g), fmt.Sprintf("B%d", g), fmt.Sprintf("T%d", g))
	}
	return out
}

// lookupSet draws n point lookups on distinct groups: half single students,
// cycling through the Alice, Bob and Theo patterns, half whole groups.
func lookupSet(rng *rand.Rand, m *model, n int) []query {
	gp := rng.Perm(len(m.groups))
	out := make([]query, 0, n)
	for i := 0; i < n; i++ {
		g := gp[i]
		if i%2 == 1 {
			out = append(out, groupQuery(m.table, g))
			continue
		}
		out = append(out, lookupQuery(m.table, fmt.Sprintf("%c%d", "ABT"[(i/2)%3], g)))
	}
	return out
}

// scanSet draws n scans of distinct courses; with withProjected every
// second one projects the students out.
func scanSet(rng *rand.Rand, m *model, n int, withProjected bool) []query {
	cp := rng.Perm(nCourses)
	out := make([]query, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, scanQuery(m.table, cp[i%nCourses], withProjected && i%2 == 1))
	}
	return out
}

// adhocStream returns a function yielding read_adhoc queries with texts that
// never repeat (a seeded permutation of every (student, course) pair).
func adhocStream(rng *rand.Rand, m *model) func() query {
	studs := m.students()
	perm := rng.Perm(len(studs) * nCourses)
	i := 0
	return func() query {
		k := perm[i%len(perm)]
		i++
		return adhocQuery(m, studs[k/nCourses], k%nCourses)
	}
}

// patchOp is one write_live mutation: an upsert of a new certain row, or the
// delete of a row this run inserted earlier.
type patchOp struct {
	script  string
	student string
	course  int
	delete  bool
}

// patchStream yields patches: three upserts of fresh students for every
// delete, deletes picking a random row inserted earlier.
func patchStream(rng *rand.Rand, m *model, tag string) func() patchOp {
	seq := 0
	var live []string
	return func() patchOp {
		if len(live) > 4 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			s := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			c := m.added[s]
			return patchOp{fmt.Sprintf("delete '%s', '%s'\n", s, course(c)), s, c, true}
		}
		seq++
		s := fmt.Sprintf("%s%d", tag, seq)
		c := rng.Intn(nCourses)
		live = append(live, s)
		return patchOp{fmt.Sprintf("upsert '%s', '%s'\n", s, course(c)), s, c, false}
	}
}

// apply records a patch in the model once the program acknowledged it.
func (m *model) apply(op patchOp) {
	if op.delete {
		delete(m.added, op.student)
	} else {
		m.added[op.student] = op.course
	}
}

func (m *model) rows() int { return m.nLoaded + len(m.added) }

// tupleKey joins a JSON tuple's values with "|".
func tupleKey(t []any) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "|")
}

func sortedKeys(w want) []string {
	out := make([]string, 0, len(w))
	for k := range w {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
