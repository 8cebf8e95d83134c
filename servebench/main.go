// Command servebench is uncertaindb's served-path benchmark. It starts
// cmd/uncertaind as its own process and drives it over loopback HTTP from
// one client in a closed loop, checking every answer against marginals
// computed in closed form from the generator's own model. With --trace 1 it
// instead replays the same generated inputs in-process and reports the time
// and work of each layer.
//
// Run it through run.sh from the repository root, which builds both
// binaries:
//
//	bash servebench/run.sh --workload read_hot --seed 1 --seconds 15 --trace 0
//	bash servebench/run.sh --short
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The lines before it are the run record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // uncertaind binary
	workDir  string // scratch space inside the checkout
	commit   string
	short    bool
	sz       sizes
}

// procs is the GOMAXPROCS of every process the benchmark runs: itself, so
// the traced run's in-process engine too, and each daemon. With one core a
// daemon's garbage collector and engine workers cannot spread onto a second
// CPU, so a latency measures the daemon's work, not whether the shared host
// had a second core free.
const procs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := &config{}
	var trace int
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "read_hot, read_adhoc or write_live")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the in-process traced replay and prints per-layer metrics")
	fs.StringVar(&cfg.server, "server", "", "path of the uncertaind binary")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "scratch directory for data directories")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the binaries were built from, for the record")
	fs.BoolVar(&cfg.short, "short", false, "self-test: every workload, tiny inputs, all checks")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(procs)
	if cfg.short {
		os.Exit(selfTest(cfg))
	}
	if _, ok := native[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown --workload %q (want read_hot, read_adhoc or write_live)\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be at least 1")
		os.Exit(2)
	}
	cfg.sz = fullSizes
	res, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runOnce runs one workload, prints its record and returns its result.
func runOnce(cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	printHost(cfg)
	if cfg.trace {
		return runTraced(cfg)
	}
	if cfg.server == "" {
		return nil, fmt.Errorf("--server is required")
	}
	r, err := runServed(cfg)
	if err != nil {
		return nil, err
	}
	return servedResult(cfg, r), nil
}

// servedResult prints the run record and assembles the end-to-end metrics.
func servedResult(cfg *config, r *runStats) *result {
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	fmt.Printf("record: set-ups %d, set-up seconds %v\n", len(r.setup), r.setup)
	fmt.Printf("record: connections dialled %d (request connection and subscription streams over %d server processes); server engine workers (GOMAXPROCS) %d\n", r.dials, r.serverProcs, r.serverWorkers)
	get := func(op, key string) (samples, string) {
		if isNative(cfg.workload, op) {
			return r.lat[key], "timed window"
		}
		return r.probeLat[key], "probe phase"
	}
	for _, op := range opTypes {
		s, where := get(op, op)
		fmt.Printf("record: %-6s latency %s [%s]\n", op, s.tail(), where)
	}
	// Latency medians gate the short operations. Misses and patches run
	// for milliseconds, long enough that on a shared VM nearly every one
	// shares its wall time with the hypervisor's other guests (steal time
	// reached 26-39% of the busy time on a 2-vCPU VM), so they are gated
	// on the daemon's CPU time.
	for _, op := range []string{"lookup", "scan"} {
		s, _ := get(op, op)
		res.Metrics[op+"_p50_us"] = metric{s.medianUS(), "us"}
	}
	for _, op := range []string{"adhoc", "patch"} {
		s, where := get(op, op+"_cpu")
		fmt.Printf("record: %-6s daemon CPU %s [%s]\n", op, s.tail(), where)
		res.Metrics[op+"_cpu_us"] = metric{s.medianUS(), "us"}
	}
	fmt.Printf("record: daemon CPU over the timed window: utime+stime %v, schedstat run time %v\n", r.cpuStat, r.runStat)
	res.Metrics["setup_s"] = metric{medianF(r.setup), "s"}
	res.Metrics["server_cpu_us_per_op"] = metric{r.cpuPerOp, "us"}
	res.Metrics["rss_peak_mb"] = metric{r.rssMB, "MB"}
	fmt.Printf("record: subscription updates %d, of them not served from the plan cache %d\n", r.pushes, r.pushMiss)
	fmt.Printf("record: %s attempted %d failed %d\n", cfg.workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("record: failure: %s\n", e)
	}
	return res
}

// printHost prints the host fingerprint and the settings of the run.
func printHost(cfg *config) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				model = strings.TrimSpace(l[strings.IndexByte(l, ':')+1:])
				break
			}
		}
	}
	mode := "served (uncertaind over loopback HTTP, one closed-loop client)"
	if cfg.trace {
		mode = "traced (in-process replay)"
	}
	fmt.Printf("record: workload %s seed %d seconds %d mode %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Printf("record: cpu %q nproc %d client GOMAXPROCS %d go %s commit %s\n", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
	flags := "default flags"
	if cfg.workload == "write_live" {
		flags = "-data-dir <fresh dir> (WAL on, fsync off, snapshot every 64 mutations)"
	}
	fmt.Printf("record: server flags -addr 127.0.0.1:0 %s; probe server: default flags; both with GOMAXPROCS=%d\n", flags, procs)
}

// selfTest runs every workload, served and traced, on tiny inputs with
// every check on. It returns the process exit code.
func selfTest(cfg *config) int {
	code := 0
	for _, w := range []string{"read_hot", "read_adhoc", "write_live"} {
		for _, traced := range []bool{false, true} {
			c := *cfg
			c.workload, c.trace, c.seconds, c.sz = w, traced, 1, shortSizes
			res, err := runOnce(&c)
			status := "ok"
			switch {
			case err != nil:
				status = "FAIL: " + err.Error()
			case !res.Correct || res.Failed > 0:
				status = fmt.Sprintf("FAIL: %d of %d operations failed", res.Failed, res.Attempted)
			}
			if status != "ok" {
				code = 1
			}
			fmt.Printf("short: %-10s traced=%-5v %s\n", w, traced, status)
		}
	}
	return code
}
