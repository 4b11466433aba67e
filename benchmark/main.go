// Command benchmark is powermap's benchmark of record. One invocation runs
// one workload in its own process, checks every output for correctness,
// prints each metric as "name value unit", and ends with one JSON line:
//
//	{"correct": true, "attempted": 68, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// instrumentation off; with --trace 1 the same workload runs again with an
// in-memory trace and the metrics are the per-layer set. run.sh builds this
// command and the pserve daemon from source and then runs it:
//
//	bash benchmark/run.sh --workload suite-dag --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of powermap sees. Every workload
// reports every one; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_geomean", "ms"},
	{"latency_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the single-layer metrics of the traced run. Layer times
// and counts are per operation (a synthesis run, or a request that missed
// the cache); a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"opt.ms", "ms"},
	{"decomp.ms", "ms"},
	{"decomp.bdd_ms", "ms"},
	{"mapper.ms", "ms"},
	{"mapper.curves_ms", "ms"},
	{"mapper.select_ms", "ms"},
	{"mapper.cuts_ms", "ms"},
	{"mapper.verify_ms", "ms"},
	{"verify.ms", "ms"},
	{"bdd.nodes_live_max", "count"},
	{"decomp.nodes_planned", "count"},
	{"mapper.sites_selected", "count"},
	{"mapper.cuts_enumerated", "count"},
	{"mapper.npn_hit_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.self_frac", "ratio"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.client_ms_p50", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.cache_evictions", "count"},
	{"bdd.pool_reuse_frac", "ratio"},
	{"serve.refused_frac", "ratio"},
	{"serve.timeout_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"suite-dag":    runSuite,
	"suite-cuts":   runSuite,
	"serve-unique": runServe,
	"serve-repeat": runServe,
}

// config is one invocation's settings. The fields below the flags are
// fixed for the benchmark of record; tests shrink them to toy scale.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	pserve   string // pserve binary
	golden   string // golden QoR file
	out      string // directory receiving trace files

	setupSamples int      // setups timed per run (median reported); serve: daemons
	circuits     []string // suite: restrict the pass to these circuits
	keys         int      // serve-repeat: distinct cached keys
	windows      int      // serve: timed windows of identical work, split over the daemons
}

// result is one workload's outcome: operations attempted and failed, and
// every metric it measured (a superset of what one mode prints).
type result struct {
	attempted, failed int
	values            map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg         config
		traceFlag   int
		setupChild  bool
		writeGolden string
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload: suite-dag, suite-cuts, serve-unique or serve-repeat")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.pserve, "pserve", filepath.Join(".bench_build", "pserve"), "pserve binary")
	fs.StringVar(&cfg.golden, "golden", filepath.Join("benchmark", "testdata", "golden.json"), "golden QoR file")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for trace files")
	fs.BoolVar(&setupChild, "setup-child", false, "perform a suite workload's set-up, print \"ready\" and exit (used to time set-up)")
	fs.StringVar(&writeGolden, "write-golden", "", "regenerate the golden QoR file at this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if writeGolden != "" {
		if err := generateGolden(writeGolden); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = traceFlag == 1
	// A suite set-up is one short process; a serve set-up starts a daemon
	// and warms its cache, and each of the four daemons then serves three
	// of the twelve timed windows.
	cfg.setupSamples, cfg.keys = 9, 16
	if strings.HasPrefix(cfg.workload, "serve-") {
		cfg.setupSamples, cfg.windows = 4, 12
	}
	if setupChild {
		if _, err := suiteSetup(cfg); err != nil {
			fmt.Fprintln(stderr, "benchmark: setup:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := report(stdout, res, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timeChildSetup starts this binary in set-up-only mode and returns the
// seconds until it is ready: process start, input generation and the
// warm-up run all count, as they would for a user's first compile.
func timeChildSetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-child", "--workload", cfg.workload,
		"--seed", fmt.Sprint(cfg.seed), "--golden", cfg.golden)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line := make([]byte, len("ready\n"))
	_, rerr := io.ReadFull(stdout, line)
	elapsed := time.Since(start).Seconds()
	werr := cmd.Wait()
	if rerr != nil || string(line) != "ready\n" || werr != nil {
		return 0, fmt.Errorf("set-up child: read %q: %v, exit: %v", line, rerr, werr)
	}
	return elapsed, nil
}

// report prints every metric of the selected set as "name value unit" and
// then the JSON result line.
func report(w io.Writer, res *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(w, "%s %s %s\n", d.name, formatValue(v), d.unit)
	}
	fmt.Fprintf(w, "attempted %d\nfailed %d\n", res.attempted, res.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// peakRSSMB returns the VmHWM (peak resident set) of a process from
// /proc/<pid>/status, in MB; pid "self" reads this process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
