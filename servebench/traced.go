package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/httpapi"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/wal"
	"uncertaindb/pkg/uncertain"
)

// The traced run replays a workload's generated inputs in-process and
// records spans, in this file only, around calls into each layer's public
// functions. Three copies of the catalog receive every operation:
//
//   - served: a pkg/uncertain DB behind the internal/httpapi handler, called
//     on an in-memory response writer that notes when the handler starts
//     writing. The handler span's child runs from the call to that moment
//     (request decode and DB.Query); the rest is encoding and writing.
//   - engine: an internal/engine Engine over its own catalog (and, for
//     write_live, a WAL store wrapped so that every append is a child span
//     of the patch that caused it).
//   - bare: a catalog with no engine and no plans, to time catalog.ApplyPatch
//     alone.
//
// Each cache miss is also decomposed by calling parser, exec (through
// pctable's evaluator), the lineage extraction and probcalc one after the
// other under one "compile" span.

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"httpapi.handler_us", "us"},
	{"httpapi.encode_us", "us"},
	{"httpapi.response_bytes", "bytes"},
	{"httpapi.allocs_per_request", "count"},
	{"engine.hit_us", "us"},
	{"engine.hit_allocs", "count"},
	{"engine.miss_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.maintain_us_per_plan", "us"},
	{"engine.forced_recompiles_per_patch", "count"},
	{"parser.query_us", "us"},
	{"parser.patch_us", "us"},
	{"exec.eval_us", "us"},
	{"exec.hash_probes", "count"},
	{"exec.answer_rows_per_tuple", "ratio"},
	{"probcalc.marginals_us", "us"},
	{"probcalc.memo_hit_ratio", "ratio"},
	{"catalog.apply_patch_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_patch", "bytes"},
	{"subscribe.push_us", "us"},
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"` // index of the parent span, -1 for a root
	Start, End int64
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in microseconds.
func (t *tracer) end(i int) float64 {
	t.spans[i].End = t.now()
	return t.us(i)
}

func (t *tracer) us(i int) float64 { return float64(t.spans[i].End-t.spans[i].Start) / 1e3 }

// selfTimes returns, per span name, the count, the total duration and the
// self time: each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string][3]float64 {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][3]float64{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		v := out[s.Name]
		v[0]++
		v[1] += float64(s.End-s.Start) / 1e3
		v[2] += float64(s.End-s.Start-covered) / 1e3
		out[s.Name] = v
	}
	return out
}

// layerSamples collects per-layer samples, split into the workload's own
// operations and the probe phase; a metric is read from the probe phase
// only when the workload itself does not exercise that layer.
type layerSamples struct {
	probe bool
	main  map[string][]float64
	prb   map[string][]float64
}

func (l *layerSamples) add(name string, v float64) {
	m := l.main
	if l.probe {
		m = l.prb
	}
	m[name] = append(m[name], v)
}

func (l *layerSamples) get(name string) []float64 {
	if v := l.main[name]; len(v) > 0 {
		return v
	}
	return l.prb[name]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// timedSink is the engine catalog's WAL sink: each append is a span, a
// child of the engine.PatchTable span open at the time.
type timedSink struct {
	*wal.Store
	tr     *tracer
	parent int
	l      *layerSamples
}

func (s *timedSink) Append(rec *wal.Record, state func() *wal.State) error {
	i := s.tr.begin("wal.Append", s.parent)
	err := s.Store.Append(rec, state)
	s.l.add("wal.append_us", s.tr.end(i))
	return err
}

// timedWriter is an in-memory ResponseWriter that records when the handler
// starts its response, which it does once DB.Query or the mutation returned.
type timedWriter struct {
	tr       *tracer
	header   http.Header
	status   int
	headerAt int64
	body     bytes.Buffer
}

func (w *timedWriter) Header() http.Header { return w.header }

func (w *timedWriter) WriteHeader(code int) {
	if w.headerAt == 0 {
		w.headerAt = w.tr.now()
		w.status = code
	}
}

func (w *timedWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// stacks are the traced run's three copies of the catalog and their state.
type stacks struct {
	tr   *tracer
	l    *layerSamples
	opts ctable.Options

	db      *uncertain.DB
	handler http.Handler
	eng     *engine.Engine
	sink    *timedSink
	bare    *catalog.Catalog
	walDirs []string
	walSeen map[string]int64 // engine WAL file sizes after the last patch

	hits, queries int // main-phase engine outcomes
}

func newStacks(cfg *config, in *inputs) (_ *stacks, err error) {
	st := &stacks{
		tr:      &tracer{epoch: time.Now()},
		l:       &layerSamples{main: map[string][]float64{}, prb: map[string][]float64{}},
		bare:    catalog.New(),
		walSeen: map[string]int64{},
	}
	st.opts = ctable.Options{Simplify: true, Rewrite: true, Workers: runtime.GOMAXPROCS(0), Pool: exec.NewWorkerPool(runtime.GOMAXPROCS(0))}
	// Every workload patches (write_live itself, the others in the probe
	// phase), so both the served DB and the engine catalog log to a WAL as
	// write_live's daemon does: default compaction, no fsync.
	for _, name := range []string{"served", "engine"} {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d", name, os.Getpid()))
		os.RemoveAll(dir)
		st.walDirs = append(st.walDirs, dir)
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	store, state, tail, err := wal.Open(st.walDirs[1], wal.Options{})
	if err != nil {
		return nil, err
	}
	cat := catalog.NewFromState(state, tail)
	st.sink = &timedSink{Store: store, tr: st.tr, parent: -1, l: st.l}
	cat.SetSink(st.sink)
	db, err := uncertain.Open(uncertain.Config{DataDir: st.walDirs[0]})
	if err != nil {
		return nil, err
	}
	st.db, st.handler = db, httpapi.New(db)
	st.eng = engine.New(cat, engine.Options{})
	for _, m := range []*model{in.main, in.probe, in.probeA} {
		for _, script := range []string{m.takesScript(), m.deptScript()} {
			name := strings.Fields(script)[1]
			w := st.serve("PUT", "/v1/tables/"+name, []byte(script))
			if w.status != http.StatusOK {
				return nil, fmt.Errorf("PUT %s: HTTP %d: %s", name, w.status, w.body.Bytes())
			}
			if _, err := st.eng.LoadCatalogScript(strings.NewReader(script)); err != nil {
				return nil, err
			}
			if _, err := st.bare.LoadScript(strings.NewReader(script)); err != nil {
				return nil, err
			}
		}
	}
	st.walWritten() // count only what the patches write
	return st, nil
}

// close releases what newStacks opened, also when it failed half way.
func (st *stacks) close() {
	if st.db != nil {
		st.db.Close()
	}
	if st.sink != nil {
		st.sink.Store.Close()
	}
	for _, d := range st.walDirs {
		os.RemoveAll(d)
	}
}

// serve calls the HTTP handler once, untraced.
func (st *stacks) serve(method, path string, body []byte) *timedWriter {
	w := &timedWriter{tr: st.tr, header: http.Header{}}
	st.handler.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// query replays one query on every stack and returns the served response
// body; main marks the workload's own operations, whose engine outcomes
// make engine.cache_hit_ratio.
func (st *stacks) query(q query, main bool) ([]byte, error) {
	tr, l := st.tr, st.l
	body := queryBody(q.text)

	// Served: handler span with the DB.Query part as its child.
	w := &timedWriter{tr: tr, header: http.Header{}}
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	m0 := mallocs()
	h := tr.begin("httpapi.ServeHTTP", -1)
	st.handler.ServeHTTP(w, req)
	handlerUS := tr.end(h)
	m1 := mallocs()
	child := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: "httpapi.decode+DB.Query", Parent: h, Start: tr.spans[h].Start, End: w.headerAt})
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", q.text, w.status, w.body.Bytes())
	}
	l.add("httpapi.handler_us", handlerUS)
	l.add("httpapi.encode_us", handlerUS-tr.us(child))
	l.add("httpapi.response_bytes", float64(w.body.Len()))
	l.add("httpapi.allocs_per_request", float64(m1-m0))

	// Parser alone, as the engine runs it on every request.
	p := tr.begin("parser.ParseQuery", -1)
	if _, err := parser.ParseQuery(q.text); err != nil {
		return nil, err
	}
	l.add("parser.query_us", tr.end(p))

	// Engine.
	m0 = mallocs()
	e := tr.begin("engine.Execute", -1)
	res, err := st.eng.Execute(engine.Request{Query: q.text})
	us := tr.end(e)
	m1 = mallocs()
	if err != nil {
		return nil, err
	}
	if res.CacheHit {
		l.add("engine.hit_us", us)
		l.add("engine.hit_allocs", float64(m1-m0))
	} else {
		l.add("engine.miss_us", us)
		if err := st.compile(q.text); err != nil {
			return nil, err
		}
	}
	if main {
		st.queries++
		if res.CacheHit {
			st.hits++
		}
	}
	return w.body.Bytes(), nil
}

// compile decomposes one cache miss into its layers: parse, evaluate the
// closed algebra, extract lineage, compute marginals.
func (st *stacks) compile(text string) error {
	tr, l := st.tr, st.l
	root := tr.begin("compile", -1)
	p := tr.begin("parser.ParseQuery", root)
	q, err := parser.ParseQuery(text)
	tr.end(p)
	if err != nil {
		return err
	}
	var names []string
	for name := range ra.InputNames(q) {
		names = append(names, name)
	}
	sort.Strings(names)
	env, err := st.eng.Catalog().Snapshot().Env(names)
	if err != nil {
		return err
	}
	var ops exec.OpStats
	opts := st.opts
	opts.Stats = &ops
	x := tr.begin("exec.Eval", root)
	answer, err := pctable.EvalQueryEnvWithOptions(q, env, opts)
	l.add("exec.eval_us", tr.end(x))
	if err != nil {
		return err
	}
	l.add("exec.hash_probes", float64(ops.HashProbes))
	lin := tr.begin("pctable.Lineage", root)
	possible, err := answer.PossibleTuples()
	if err != nil {
		return err
	}
	var lineages []condition.Condition
	for _, tp := range possible {
		c := answer.Lineage(tp)
		if _, isFalse := c.(condition.FalseCond); !isFalse {
			lineages = append(lineages, c)
		}
	}
	tr.end(lin)
	pc := tr.begin("probcalc.Marginals", root)
	ev := probcalc.New(answer)
	tuples := 0
	for _, c := range lineages {
		pr, err := ev.Probability(c)
		if err != nil {
			return err
		}
		if pr > 0 {
			tuples++
		}
	}
	l.add("probcalc.marginals_us", tr.end(pc))
	ps := ev.Stats()
	l.add("probcalc.memo_hits", float64(ps.MemoHits))
	l.add("probcalc.memo_lookups", float64(ps.MemoHits+ps.MemoMisses))
	if tuples > 0 {
		l.add("exec.answer_rows_per_tuple", float64(answer.NumRows())/float64(tuples))
	}
	tr.end(root)
	return nil
}

// pushEvent is one DB.Subscribe callback.
type pushEvent struct {
	at  time.Time
	res *uncertain.Result
}

// liveSub is an in-process subscription on the served DB.
type liveSub struct {
	ch     chan pushEvent
	cancel context.CancelFunc
	done   chan struct{}
}

func (st *stacks) subscribe(q string) (*liveSub, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveSub{ch: make(chan pushEvent, 1), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = st.db.Subscribe(ctx, uncertain.Request{Query: q}, func(res *uncertain.Result) error {
			select {
			case s.ch <- pushEvent{time.Now(), res}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	select {
	case <-s.ch: // the initial result
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("subscription on %s ended at once", q)
	case <-time.After(30 * time.Second):
		cancel()
		<-s.done
		return nil, fmt.Errorf("no initial subscription result for %s", q)
	}
}

func (s *liveSub) close() {
	s.cancel()
	<-s.done
}

// patch replays one patch on every stack, checks the push it causes and
// re-reads scan; it returns the error of the first failed check.
func (st *stacks) patch(m *model, op patchOp, sub *liveSub, subQ, scan query, lastVersion *uint64) error {
	tr, l := st.tr, st.l

	// Served: the facade's PatchTableScript, then the subscriber's push.
	s := tr.begin("uncertain.PatchTableScript", -1)
	v, err := st.db.PatchTableScript(m.table, op.script)
	tr.end(s)
	returned := time.Now()
	if err != nil {
		return err
	}
	var ev pushEvent
	select {
	case ev = <-sub.ch:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("no push after patch %q", op.script)
	}
	l.add("subscribe.push_us", float64(ev.at.Sub(returned))/1e3)

	// Parser, engine (with WAL appends as children) and bare catalog.
	pp := tr.begin("parser.ParsePatch", -1)
	pt, err := parser.ParsePatchString(op.script)
	l.add("parser.patch_us", tr.end(pp))
	if err != nil {
		return err
	}
	before := st.eng.Stats().Maintenance
	e := tr.begin("engine.PatchTable", -1)
	st.sink.parent = e
	_, err = st.eng.PatchTable(m.table, pt)
	tr.end(e)
	st.sink.parent = -1
	if err != nil {
		return err
	}
	after := st.eng.Stats().Maintenance
	pt2, err := parser.ParsePatchString(op.script)
	if err != nil {
		return err
	}
	c := tr.begin("catalog.ApplyPatch", -1)
	_, _, err = st.bare.ApplyPatch(m.table, pt2)
	applyUS := tr.end(c)
	if err != nil {
		return err
	}
	l.add("catalog.apply_patch_us", applyUS)
	selfUS := tr.us(e)
	for i := e + 1; i < len(tr.spans); i++ {
		if tr.spans[i].Parent == e {
			selfUS -= tr.us(i)
		}
	}
	if n := after.PlansMaintained - before.PlansMaintained; n > 0 {
		l.add("engine.maintain_us_per_plan", (selfUS-applyUS)/float64(n))
	}
	forced := after.ForcedNonMonotone + after.ForcedTableReplaced + after.ForcedSelectionChanged + after.ForcedDistsChanged + after.ForcedError
	forced -= before.ForcedNonMonotone + before.ForcedTableReplaced + before.ForcedSelectionChanged + before.ForcedDistsChanged + before.ForcedError
	l.add("engine.forced_recompiles_per_patch", float64(forced))
	l.add("wal.bytes_per_patch", float64(st.walWritten()))

	// Checks: versions, the push, and the re-read of a maintained scan.
	m.apply(op)
	if v <= *lastVersion {
		return fmt.Errorf("PatchTableScript returned version %d after %d", v, *lastVersion)
	}
	*lastVersion = v
	if ev.res.CatalogVersion != v {
		return fmt.Errorf("push carries catalog version %d, patch returned %d", ev.res.CatalogVersion, v)
	}
	if err := checkDecoded(resultAnswer(ev.res), subQ.want(m)); err != nil {
		return fmt.Errorf("push for %s: %v", subQ.text, err)
	}
	body, err := st.query(scan, !l.probe)
	if err != nil {
		return err
	}
	return pending{scan, m, body, -1}.check()
}

// walWritten returns the bytes written to the engine's WAL directory since
// the last call: log growth plus every snapshot written.
func (st *stacks) walWritten() int64 {
	entries, err := os.ReadDir(st.walDirs[1])
	if err != nil {
		return 0
	}
	var n int64
	seen := map[string]int64{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		size := info.Size()
		seen[e.Name()] = size
		prev, ok := st.walSeen[e.Name()]
		switch {
		case !ok || size < prev: // new, or rewritten from the start
			n += size
		default:
			n += size - prev
		}
	}
	st.walSeen = seen
	return n
}

// resultAnswer converts an in-process result into the wire shape the checks
// read, as the HTTP layer renders it.
func resultAnswer(res *uncertain.Result) *answer {
	a := &answer{CatalogVersion: res.CatalogVersion, CacheHit: res.CacheHit}
	for _, t := range res.Tuples {
		vals := make([]any, len(t.Tuple))
		for i, v := range t.Tuple {
			vals[i] = v.AsString()
		}
		a.Tuples = append(a.Tuples, struct {
			Tuple   []any   `json:"tuple"`
			P       float64 `json:"p"`
			Certain bool    `json:"certain"`
		}{vals, t.P, t.Certain})
		a.Possible = append(a.Possible, vals)
		if t.Certain {
			a.Certain = append(a.Certain, vals)
		}
	}
	return a
}

// runTraced is the --trace 1 run: the workload's own operations (priming
// included) for the run length, then the probe phase for the layers the
// workload does not exercise: patches for the read workloads, plan-cache
// hits for read_adhoc. Every workload compiles plans while priming, so the
// miss-path layers need no probe.
func runTraced(cfg *config) (*result, error) {
	in := genInputs(cfg.workload, cfg.seed, cfg.sz)
	st, err := newStacks(cfg, in)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r := &runStats{}
	check := func(q query, m *model, hit int, main bool) {
		r.attempted++
		body, err := st.query(q, main)
		if err != nil {
			r.fail(err)
			return
		}
		if err := (pending{q, m, body, hit}).check(); err != nil {
			r.fail(err)
		}
	}

	// Priming, as in the served run.
	var sub *liveSub
	switch cfg.workload {
	case "read_hot":
		for _, q := range append(append([]query{}, in.lookups...), in.scans...) {
			check(q, in.main, 0, false)
		}
	case "read_adhoc":
		for i := 0; i < cfg.sz.adhocWarm; i++ {
			check(in.adhoc(), in.main, 0, false)
		}
	case "write_live":
		for _, q := range in.scans {
			check(q, in.main, 0, false)
		}
		if sub, err = st.subscribe(in.scans[0].text); err != nil {
			return nil, err
		}
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	last := uint64(0)
	for i := 0; time.Now().Before(deadline); i++ {
		switch cfg.workload {
		case "read_hot":
			for j := 0; j < 5; j++ {
				if j < 4 {
					check(in.lookups[in.mix.Intn(len(in.lookups))], in.main, 1, true)
				} else {
					check(in.scans[in.mix.Intn(len(in.scans))], in.main, 1, true)
				}
			}
		case "read_adhoc":
			check(in.adhoc(), in.main, 0, true)
		case "write_live":
			r.attempted++
			if err := st.patch(in.main, in.patches(), sub, in.scans[0], in.scans[i%len(in.scans)], &last); err != nil {
				r.fail(err)
			}
		}
	}
	if sub != nil {
		sub.close()
		r.attempted++
		if got, want := st.eng.Catalog().Snapshot().Get(in.main.table).Table.NumRows(), in.main.rows(); got != want {
			r.fail(fmt.Errorf("final row count %d, expected %d", got, want))
		}
	}
	overhead := st.overhead(cfg, in)

	// Probe phase: the layers this workload does not reach.
	st.l.probe = true
	if !isNative(cfg.workload, "patch") {
		psub, err := st.subscribe(in.probeLive.text)
		if err != nil {
			return nil, err
		}
		plast := uint64(0)
		for i := 0; i < cfg.sz.tracedProbe; i++ {
			r.attempted++
			if err := st.patch(in.probe, in.probePatch(), psub, in.probeLive, in.probeLive, &plast); err != nil {
				r.fail(err)
			}
		}
		psub.close()
	}
	if st.hits == 0 { // read_adhoc: hits on the probe lookups
		for _, q := range in.probeLook {
			check(q, in.probeA, -1, false)
		}
		for i := 0; i < cfg.sz.tracedProbe; i++ {
			check(in.probeLook[i%len(in.probeLook)], in.probeA, 1, false)
		}
	}
	return st.report(cfg, r, overhead)
}

// overhead times the same cache-hit requests through the handler on the
// same writer with and without the tracing around it (spans, allocation
// counts), alternating, and returns the difference of the medians in
// microseconds and as a share of the untraced median.
func (st *stacks) overhead(cfg *config, in *inputs) [2]float64 {
	qs := in.lookups
	switch cfg.workload {
	case "write_live":
		qs = in.scans
	case "read_adhoc": // its own queries never hit; the probe lookups do
		qs = in.probeLook
	}
	n := 200
	if cfg.short {
		n = 10
	}
	saved := st.l
	st.l = &layerSamples{main: map[string][]float64{}, prb: map[string][]float64{}}
	defer func() { st.l = saved }()
	for _, q := range qs { // make every request below a hit
		if _, err := st.query(q, false); err != nil {
			return [2]float64{}
		}
	}
	var traced, plain samples
	for i := 0; i < n; i++ {
		q := qs[i%len(qs)]
		// Alternate which call goes first, so neither always finds the
		// other's work in the CPU caches.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				start := time.Now()
				st.serve("POST", "/v1/query", queryBody(q.text))
				plain = append(plain, time.Since(start))
				continue
			}
			h := len(st.tr.spans)
			if _, err := st.query(q, false); err != nil {
				return [2]float64{}
			}
			traced = append(traced, time.Duration(st.tr.spans[h].End-st.tr.spans[h].Start))
		}
	}
	d := traced.medianUS() - plain.medianUS()
	return [2]float64{d, d / plain.medianUS()}
}

// report prints the self-time table and the tracing overhead, writes the
// spans out, and assembles the per-layer metrics.
func (st *stacks) report(cfg *config, r *runStats, overhead [2]float64) (*result, error) {
	l := st.l
	self := st.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("record: span self times (count, total us, self us, mean self us):")
	for _, n := range names {
		v := self[n]
		fmt.Printf("record:   %-28s %8.0f %12.1f %12.1f %10.2f\n", n, v[0], v[1], v[2], v[2]/v[0])
	}
	fmt.Printf("record: tracing overhead on the handler path: %+.1f us per request (%+.1f%% of the untraced handler median)\n", overhead[0], 100*overhead[1])
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if data, err := json.Marshal(st.tr.spans); err == nil {
		if err := os.WriteFile(path, data, 0o644); err == nil {
			fmt.Printf("record: %d spans written to %s\n", len(st.tr.spans), path)
		}
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		var v float64
		switch m.name {
		case "engine.cache_hit_ratio":
			if st.queries > 0 {
				v = float64(st.hits) / float64(st.queries)
			}
		case "probcalc.memo_hit_ratio":
			if n := sum(l.get("probcalc.memo_lookups")); n > 0 {
				v = sum(l.get("probcalc.memo_hits")) / n
			}
		case "engine.forced_recompiles_per_patch", "wal.bytes_per_patch", "exec.hash_probes":
			v = mean(l.get(m.name))
		default:
			v = medianF(l.get(m.name))
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	fmt.Printf("record: %s traced attempted %d failed %d (engine: %d of %d main-phase queries hit)\n", cfg.workload, r.attempted, r.failed, st.hits, st.queries)
	for _, e := range r.errs {
		fmt.Printf("record: failure: %s\n", e)
	}
	return res, nil
}
