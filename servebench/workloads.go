package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// sizes fixes the generated inputs. The full sizes are what the benchmark
// measures; --short shrinks them for the self-test.
type sizes struct {
	hotGroups, adhocGroups, liveGroups      int
	probeGroups, probeAGroups, probeMGroups int // the probe daemon's tables
	hotLookups, hotScans                    int
	adhocWarm                               int // fresh queries run before timing, more than the 128-plan cache
	liveScans                               int
	setups                                  map[string]int // set-ups per run; the median is setup_s
	tracedProbe                             int            // patches (and hits) in the traced run's probe phase
}

var fullSizes = sizes{
	hotGroups: 667, adhocGroups: 34, liveGroups: 100,
	probeGroups: 50, probeAGroups: 667, probeMGroups: 12,
	hotLookups: 16, hotScans: 4,
	adhocWarm:   130,
	liveScans:   3,
	setups:      map[string]int{"read_hot": 3, "read_adhoc": 3, "write_live": 5},
	tracedProbe: 60,
}

var shortSizes = sizes{
	hotGroups: 60, adhocGroups: 20, liveGroups: 40,
	probeGroups: 6, probeAGroups: 12, probeMGroups: 6,
	hotLookups: 8, hotScans: 2,
	adhocWarm:   10,
	liveScans:   2,
	setups:      map[string]int{"read_hot": 1, "read_adhoc": 1, "write_live": 1},
	tracedProbe: 6,
}

// native lists the operation types each workload times on its own daemon;
// the end-to-end metrics of the other types come from the probe daemon,
// which serves tables of its own (see README).
var native = map[string][]string{
	"read_hot":   {"lookup", "scan"},
	"read_adhoc": {"adhoc"},
	"write_live": {"patch", "push", "scan"},
}

var opTypes = []string{"lookup", "scan", "adhoc", "patch", "push"}

func isNative(workload, op string) bool {
	for _, o := range native[workload] {
		if o == op {
			return true
		}
	}
	return false
}

// rngFor derives an independent deterministic stream per purpose.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// inputs are one workload's generated tables and request streams.
type inputs struct {
	main    *model
	lookups []query // read_hot
	scans   []query // read_hot and write_live
	adhoc   func() query
	patches func() patchOp
	mix     *rand.Rand // read_hot's request order

	// The probe daemon's tables: probe takes the patches and has one cached
	// plan, probeLive, which the subscription follows and each patch
	// re-reads; probeA serves the cached lookups and scans; probeM, kept
	// small so the plans its misses leave in the cache stay small, serves
	// the cache-missing queries. No patch touches probeA or probeM.
	probe, probeA, probeM *model
	probeLive             query
	probeLook             []query
	probeScans            []query
	probeAdhoc            func() query
	probePatch            func() patchOp
}

func genInputs(workload string, seed int64, sz sizes) *inputs {
	in := &inputs{mix: rngFor(seed, 1)}
	groups := map[string]int{"read_hot": sz.hotGroups, "read_adhoc": sz.adhocGroups, "write_live": sz.liveGroups}[workload]
	in.main = newModel(rngFor(seed, 2), "Takes", "Dept", groups)
	switch workload {
	case "read_hot":
		in.lookups = lookupSet(rngFor(seed, 4), in.main, sz.hotLookups)
		in.scans = scanSet(rngFor(seed, 5), in.main, sz.hotScans, true)
	case "read_adhoc":
		in.adhoc = adhocStream(rngFor(seed, 4), in.main)
	case "write_live":
		in.scans = scanSet(rngFor(seed, 5), in.main, sz.liveScans, false)
		// The engine maintains a table's cached plans in the order of their
		// cache keys, which begin with the query text. Sorted, the
		// subscribed scan (scans[0]) is maintained first for every seed, so
		// whether the subscription's re-execution finds its plan already
		// maintained does not hang on the courses the seed picked.
		sort.Slice(in.scans, func(i, j int) bool { return in.scans[i].text < in.scans[j].text })
		in.patches = patchStream(rngFor(seed, 6), in.main, "N")
	}
	in.probe = newModel(rngFor(seed, 7), "Pt", "Pdept", sz.probeGroups)
	in.probeA = newModel(rngFor(seed, 8), "Pa", "Padept", sz.probeAGroups)
	in.probeLive = scanSet(rngFor(seed, 9), in.probe, 1, false)[0]
	in.probeLook = lookupSet(rngFor(seed, 10), in.probeA, 8)
	in.probeScans = scanSet(rngFor(seed, 11), in.probeA, 2, false)
	in.probeM = newModel(rngFor(seed, 14), "Pm", "Pmdept", sz.probeMGroups)
	in.probeAdhoc = adhocStream(rngFor(seed, 12), in.probeM)
	in.probePatch = patchStream(rngFor(seed, 13), in.probe, "P")
	return in
}

// runStats gathers one run's measurements.
type runStats struct {
	attempted, failed int
	lat               map[string]samples // on the workload's daemon
	probeLat          map[string]samples // on the probe daemon
	setup             []float64          // seconds, one per set-up
	cpuPerOp          float64            // server CPU microseconds per timed operation
	cpuStat, runStat  time.Duration      // the daemon's CPU over the window, from stat and schedstat
	rssMB             float64
	dials             int
	serverProcs       int
	serverWorkers     int // the engine's worker bound, GOMAXPROCS by default
	pushes, pushMiss  int // subscription updates, and those not served from the plan cache
	errs              []string
}

func (r *runStats) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// served is the live state of one set-up: the workload's daemon with its
// request connection and write_live's subscription, and the probe daemon
// with its own.
type served struct {
	srv, probe *server
	c, pc      *client
	sub, psub  *subscription
	dataDir    string
}

func (s *served) close(r *runStats) {
	for _, sub := range []*subscription{s.sub, s.psub} {
		if sub != nil {
			r.dials += sub.dials
			sub.close()
		}
	}
	for _, c := range []*client{s.c, s.pc} {
		if c != nil {
			r.dials += c.dials
			c.close()
		}
	}
	for _, srv := range []*server{s.srv, s.probe} {
		if srv != nil {
			srv.stop()
		}
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// pending is a response kept for checking after the timed part is over.
type pending struct {
	q    query
	m    *model
	body []byte
	hit  int // 1: cacheHit must be true, 0: must be false, -1: either
}

func (p pending) check() error {
	a, err := checkAnswer(p.body, p.q.want(p.m))
	if err != nil {
		return fmt.Errorf("%s: %v", p.q.text, err)
	}
	if p.hit >= 0 && a.CacheHit != (p.hit == 1) {
		return fmt.Errorf("%s: cacheHit=%v", p.q.text, a.CacheHit)
	}
	return nil
}

func copyBytes(b []byte) []byte { return append([]byte(nil), b...) }

// setUp starts the workload's daemon and the probe daemon, loads their
// catalogs over PUT and primes them: read_hot compiles its whole query
// set, read_adhoc fills the plan cache past its 128 entries with fresh
// queries, write_live caches its scans and opens the subscription; the
// probe daemon caches the probe lookups and scans and, where patches are
// probed, opens its own subscription. It returns the responses to check;
// the caller checks them after the set-up time is taken.
func setUp(cfg *config, in *inputs, r *runStats) (*served, []pending, error) {
	s := &served{}
	var flags []string
	if cfg.workload == "write_live" {
		s.dataDir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", os.Getpid()))
		os.RemoveAll(s.dataDir)
		flags = append(flags, "-data-dir", s.dataDir)
	}
	var err error
	if s.srv, err = startServer(cfg.server, flags); err != nil {
		return s, nil, err
	}
	if s.probe, err = startServer(cfg.server, nil); err != nil {
		return s, nil, err
	}
	r.serverProcs += 2
	s.c, s.pc = newClient(s.srv), newClient(s.probe)
	// The probe daemon holds only the tables of the types it times.
	type load struct {
		c *client
		m *model
	}
	loads := []load{{s.c, in.main}}
	if !isNative(cfg.workload, "patch") {
		loads = append(loads, load{s.pc, in.probe})
	}
	if !isNative(cfg.workload, "lookup") {
		loads = append(loads, load{s.pc, in.probeA})
	}
	if !isNative(cfg.workload, "adhoc") {
		loads = append(loads, load{s.pc, in.probeM})
	}
	for _, l := range loads {
		if err := l.c.load(l.m); err != nil {
			return s, nil, err
		}
	}
	var check []pending
	prime := func(c *client, qs []query, m *model) error {
		for _, q := range qs {
			body, _, err := c.query(q.text)
			if err != nil {
				return err
			}
			check = append(check, pending{q, m, copyBytes(body), 0})
		}
		return nil
	}
	open := func(base string, q query, m *model) (*subscription, error) {
		sub, err := subscribe(base, q.text)
		if err != nil {
			return nil, err
		}
		l, err := sub.next(30 * time.Second)
		if err != nil {
			sub.close()
			return nil, err
		}
		check = append(check, pending{q, m, l.body, -1})
		return sub, nil
	}
	switch cfg.workload {
	case "read_hot":
		err = prime(s.c, append(append([]query{}, in.lookups...), in.scans...), in.main)
	case "read_adhoc":
		warm := make([]query, cfg.sz.adhocWarm)
		for i := range warm {
			warm[i] = in.adhoc()
		}
		err = prime(s.c, warm, in.main)
	case "write_live":
		if err = prime(s.c, in.scans, in.main); err == nil {
			s.sub, err = open(s.srv.base, in.scans[0], in.main)
		}
	}
	if err == nil && !isNative(cfg.workload, "lookup") {
		err = prime(s.pc, append(append([]query{}, in.probeLook...), in.probeScans...), in.probeA)
	}
	if err == nil && !isNative(cfg.workload, "patch") {
		s.psub, err = open(s.probe.base, in.probeLive, in.probe)
	}
	return s, check, err
}

// runServed measures one workload over loopback HTTP: repeated set-ups,
// then the timed closed loop on the last one.
func runServed(cfg *config) (*runStats, error) {
	r := &runStats{lat: map[string]samples{}, probeLat: map[string]samples{}}
	var s *served
	var in *inputs
	for i := 0; i < cfg.sz.setups[cfg.workload]; i++ {
		if s != nil {
			s.close(r)
		}
		// Every set-up replays the same generated inputs.
		in = genInputs(cfg.workload, cfg.seed, cfg.sz)
		start := time.Now()
		var check []pending
		var err error
		s, check, err = setUp(cfg, in, r)
		if err != nil {
			s.close(r)
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		for _, p := range check {
			r.attempted++
			if err := p.check(); err != nil {
				r.fail(fmt.Errorf("priming: %v", err))
			}
		}
	}
	err := measure(cfg, in, s, r)
	s.close(r)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// measure runs the timed window on the primed daemons and reads the
// workload daemon's CPU time and peak memory around it.
func measure(cfg *config, in *inputs, s *served, r *runStats) error {
	pid := s.srv.cmd.Process.Pid
	cpu0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	run0, err := runTime(pid)
	if err != nil {
		return err
	}
	settle(s.srv)
	ops := timedLoop(cfg, in, s, r)
	cpu1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	run1, err := runTime(pid)
	if err != nil {
		return err
	}
	r.cpuStat, r.runStat = cpu1-cpu0, run1-run0
	r.cpuPerOp = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(ops)
	if r.rssMB, err = statusKB(pid, "VmHWM"); err != nil {
		return err
	}
	r.rssMB /= 1024
	if cfg.workload == "write_live" {
		r.attempted++
		if rows, err := s.c.tableRows(in.main.table); err != nil {
			r.fail(err)
		} else if rows != in.main.rows() {
			r.fail(fmt.Errorf("final row count %d, expected %d loaded + upserts - deletes = %d", rows, in.main.nLoaded, in.main.rows()))
		}
	}
	r.serverWorkers = s.c.engineWorkers()
	return nil
}

// blocks is how many stretches of the workload's own rounds a run has; a
// probe block follows each, so every metric is sampled across the whole run
// while the two daemons take turns in blocks, not per request.
const blocks = 30

// timedLoop runs whole rounds of the workload's operations in blocks, each
// followed by a probe block, until the run length is used up, and returns
// the number of operations timed on the workload's daemon. Each response
// is checked after its latency is taken.
func timedLoop(cfg *config, in *inputs, s *served, r *runStats) int {
	// The benchmark's own garbage is collected between blocks, while no
	// request is timed, instead of by a collection that runs beside one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	start := time.Now()
	block := time.Duration(cfg.seconds) * time.Second / blocks
	ops := 0
	cb := newCheckedBodies()
	var lastVersion, probeVersion uint64
	probe := probeState{in: in, s: s, r: r, cb: newCheckedBodies(), workload: cfg.workload, lastVersion: &probeVersion}
	for b, i := 1, 0; b <= blocks; i++ {
		switch cfg.workload {
		case "read_hot":
			// One round: four point lookups and one scan.
			for j := 0; j < 5; j++ {
				var q query
				if j < 4 {
					q = in.lookups[in.mix.Intn(len(in.lookups))]
				} else {
					q = in.scans[in.mix.Intn(len(in.scans))]
				}
				ops++
				r.attempted++
				body, d, err := s.c.query(q.text)
				if err != nil {
					r.fail(err)
					continue
				}
				r.lat[q.kind] = append(r.lat[q.kind], d)
				if cb.seen(q.text, body) {
					continue
				}
				if err := (pending{q, in.main, body, 1}).check(); err != nil {
					r.fail(err)
					continue
				}
				cb.remember(q.text, body)
			}
		case "read_adhoc":
			q := in.adhoc()
			ops++
			r.attempted++
			cpu0 := s.c.cpu()
			body, d, err := s.c.query(q.text)
			if err != nil {
				r.fail(err)
				break
			}
			r.lat["adhoc_cpu"] = append(r.lat["adhoc_cpu"], s.c.cpu()-cpu0)
			r.lat["adhoc"] = append(r.lat["adhoc"], d)
			if err := (pending{q, in.main, body, 0}).check(); err != nil {
				r.fail(err)
			}
		case "write_live":
			ops++
			r.attempted++
			scan := in.scans[i%len(in.scans)]
			if err := liveOp(s.c, s.sub, in.main, in.patches(), in.scans[0], scan, &lastVersion, r.lat, r); err != nil {
				r.fail(err)
			}
		}
		if time.Since(start) >= time.Duration(b)*block {
			// Each daemon finishes its background work (garbage collection,
			// mostly) before the other one is timed.
			runtime.GC()
			settle(s.srv)
			probe.block()
			settle(s.probe)
			b++
		}
	}
	return ops
}

// liveOp is one write operation: a 1-row PATCH, the subscriber's update
// line, and a re-read of one maintained scan. Latencies go to lat; the
// acknowledgement, the push and the scan are checked afterwards.
func liveOp(c *client, sub *subscription, m *model, op patchOp, subQ, scan query, lastVersion *uint64, lat map[string]samples, r *runStats) error {
	cpu0 := c.cpu()
	v, d, err := c.patch(m.table, op.script)
	if err != nil {
		return err
	}
	sent := c.lastStart
	l, err := sub.next(30 * time.Second)
	if err != nil {
		return err
	}
	lat["patch_cpu"] = append(lat["patch_cpu"], c.cpu()-cpu0)
	body, ds, err := c.query(scan.text)
	if err != nil {
		return err
	}
	lat["patch"] = append(lat["patch"], d)
	lat["push"] = append(lat["push"], l.at.Sub(sent))
	lat["scan"] = append(lat["scan"], ds)
	m.apply(op)
	if v <= *lastVersion {
		return fmt.Errorf("PATCH acknowledged version %d after version %d", v, *lastVersion)
	}
	*lastVersion = v
	a, err := checkAnswer(l.body, subQ.want(m))
	if err != nil {
		return fmt.Errorf("push for %s: %v", subQ.text, err)
	}
	if a.CatalogVersion != v {
		return fmt.Errorf("push carries catalog version %d, PATCH acknowledged %d", a.CatalogVersion, v)
	}
	r.pushes++
	if !a.CacheHit {
		r.pushMiss++
	}
	return pending{scan, m, body, -1}.check()
}

// probeState drives the probe daemon: each block times the operation types
// the workload's own daemon does not, on tables of its own, so that every
// end-to-end metric is measured on every workload. The probe daemon runs
// with default flags, so its patches are not logged.
type probeState struct {
	workload    string
	in          *inputs
	s           *served
	r           *runStats
	cb          *checkedBodies
	lastVersion *uint64
}

// probeOps is how many operations of each type one probe block times.
var probeOps = map[string]int{"lookup": 14, "scan": 7, "adhoc": 6, "patch": 3}

// block runs one probe block: for each operation type the workload's own
// daemon does not time, a fixed number of operations on the probe daemon.
func (p *probeState) block() {
	in, r := p.in, p.r
	hit := func(kind string, q query) {
		r.attempted++
		body, d, err := p.s.pc.query(q.text)
		if err != nil {
			r.fail(err)
			return
		}
		r.probeLat[kind] = append(r.probeLat[kind], d)
		if p.cb.seen(q.text, body) {
			return
		}
		if err := (pending{q, in.probeA, body, 1}).check(); err != nil {
			r.fail(err)
			return
		}
		p.cb.remember(q.text, body)
	}
	if !isNative(p.workload, "patch") {
		lat := map[string]samples{} // the re-read scans are not the scan probe
		for i := 0; i < probeOps["patch"]; i++ {
			r.attempted++
			if err := liveOp(p.s.pc, p.s.psub, in.probe, in.probePatch(), in.probeLive, in.probeLive, p.lastVersion, lat, r); err != nil {
				r.fail(err)
			}
		}
		r.probeLat["patch"] = append(r.probeLat["patch"], lat["patch"]...)
		r.probeLat["push"] = append(r.probeLat["push"], lat["push"]...)
		r.probeLat["patch_cpu"] = append(r.probeLat["patch_cpu"], lat["patch_cpu"]...)
	}
	if !isNative(p.workload, "lookup") {
		for i := 0; i < probeOps["lookup"]; i++ {
			hit("lookup", in.probeLook[i%len(in.probeLook)])
		}
	}
	if !isNative(p.workload, "scan") {
		for i := 0; i < probeOps["scan"]; i++ {
			hit("scan", in.probeScans[i%len(in.probeScans)])
		}
	}
	if !isNative(p.workload, "adhoc") {
		for i := 0; i < probeOps["adhoc"]; i++ {
			p.adhoc()
		}
	}
}

// adhoc times one cache-missing query on the probe daemon.
func (p *probeState) adhoc() {
	q := p.in.probeAdhoc()
	p.r.attempted++
	cpu0 := p.s.pc.cpu()
	body, d, err := p.s.pc.query(q.text)
	if err != nil {
		p.r.fail(err)
		return
	}
	p.r.probeLat["adhoc_cpu"] = append(p.r.probeLat["adhoc_cpu"], p.s.pc.cpu()-cpu0)
	p.r.probeLat["adhoc"] = append(p.r.probeLat["adhoc"], d)
	if err := (pending{q, p.in.probeM, body, 0}).check(); err != nil {
		p.r.fail(err)
	}
}
