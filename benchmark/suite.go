package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
	"powermap/internal/obs"
	"powermap/internal/power"
	"powermap/internal/verify"
)

// suiteSpec is one suite workload's pass: the Tables 2/3 protocol on a
// fixed job list. Per circuit, a Method I reference run fixes the output
// required times (its arrivals × 1.001, as eval.RunSuite does), then each
// listed method runs under them. Every run is checked by
// verify.CheckResult and against the golden QoR file.
type suiteSpec struct {
	backend  mapper.Backend
	circuits []circuitJobs
	// passSeconds is the nominal length of one pass on a 2-CPU host; a run
	// makes round(seconds / passSeconds) passes, so its work is fixed.
	passSeconds float64
}

// circuitJobs is one circuit's share of a pass: the reference run plus
// the listed methods.
type circuitJobs struct {
	name    string
	methods []core.Method
}

func suiteSpecFor(workload string) suiteSpec {
	if workload == "suite-cuts" {
		// The cuts backend costs 4-5x the structural one per run, so the
		// pass takes the smaller circuits, each with Method VI and the five
		// smallest also with Method III (the area-delay objective).
		both := []core.Method{core.MethodIII, core.MethodVI}
		vi := []core.Method{core.MethodVI}
		return suiteSpec{
			backend: mapper.BackendCuts,
			circuits: []circuitJobs{
				{"s208", both}, {"s344", vi}, {"s382", both}, {"s713", vi},
				{"cm42a", both}, {"x2", both}, {"ttt2", vi}, {"alu2", both},
			},
			passSeconds: 10,
		}
	}
	// Every circuit but x3 (four independent blocks the size of the other
	// stand-ins), each with one method, rotating I..VI in table order so
	// each method runs on two or three circuits.
	var jobs []circuitJobs
	for _, b := range circuits.Suite() {
		if b.Name == "x3" {
			continue
		}
		jobs = append(jobs, circuitJobs{b.Name, []core.Method{core.Methods()[len(jobs)%6]}})
	}
	return suiteSpec{backend: mapper.BackendStructural, circuits: jobs, passSeconds: 10}
}

func backendName(b mapper.Backend) string {
	if b == mapper.BackendCuts {
		return "cuts"
	}
	return "dag"
}

// runOptions are the Tables 2/3 settings: static CMOS, 15% slack on the
// reference run, one worker.
func runOptions(backend mapper.Backend, m core.Method, required map[string]float64, sc *obs.Scope) core.Options {
	return core.Options{
		Method:     m,
		Style:      huffman.Static,
		Relax:      core.Float64(0.15),
		Mapper:     backend,
		Workers:    1,
		PORequired: required,
		Obs:        sc,
	}
}

// runCircuit runs one circuit's jobs and hands each run's label ("ref" or
// the method), report, wall time and error to visit. The wall time covers
// building the source network, synthesis and verification. When the
// reference run fails, the method runs count as failed without running.
func runCircuit(ctx context.Context, backend mapper.Backend, cj circuitJobs, sc *obs.Scope,
	visit func(label string, rep power.Report, wall time.Duration, err error)) {
	b, err := circuits.ByName(cj.name)
	one := func(label string, m core.Method, required map[string]float64) *core.Result {
		if err != nil {
			visit(label, power.Report{}, 0, err)
			return nil
		}
		start := time.Now()
		span := sc.Start("bench.run")
		src := b.Build()
		res, rerr := core.SynthesizeContext(ctx, src, runOptions(backend, m, required, sc))
		if rerr == nil {
			vspan := sc.Start("bench.verify")
			rerr = verify.CheckResult(ctx, src, res)
			vspan.End()
		}
		span.End()
		wall := time.Since(start)
		if rerr != nil {
			visit(label, power.Report{}, wall, rerr)
			return nil
		}
		visit(label, res.Report, wall, nil)
		return res
	}
	ref := one("ref", core.MethodI, nil)
	var required map[string]float64
	if ref == nil {
		err = fmt.Errorf("%s: reference run failed", cj.name)
	} else {
		required = ref.Netlist.OutputArrivals()
		for name, t := range required {
			required[name] = t * 1.001
		}
	}
	for _, m := range cj.methods {
		one(m.String(), m, required)
	}
}

// qor is one run's quality of results, compared exactly against the golden
// file: a speed-up must not move a paper number.
type qor struct {
	Gates int     `json:"gates"`
	Area  float64 `json:"area"`
	Delay float64 `json:"delay_ns"`
	Power float64 `json:"power_uw"`
}

func qorOf(r power.Report) qor { return qor{r.Gates, r.GateArea, r.Delay, r.PowerUW} }

func goldenKey(backend mapper.Backend, circuit, label string) string {
	return backendName(backend) + "/" + circuit + "/" + label
}

func loadGolden(path string) (map[string]qor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g map[string]qor
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden file %s: %w", path, err)
	}
	return g, nil
}

// generateGolden writes the QoR of every circuit × {ref, I..VI} on both
// backends, so later commits are checked against this one.
func generateGolden(path string) error {
	g := make(map[string]qor)
	for _, backend := range []mapper.Backend{mapper.BackendStructural, mapper.BackendCuts} {
		for _, b := range circuits.Suite() {
			var firstErr error
			runCircuit(context.Background(), backend, circuitJobs{b.Name, core.Methods()}, nil,
				func(label string, rep power.Report, wall time.Duration, err error) {
					if err != nil && firstErr == nil {
						firstErr = err
					}
					g[goldenKey(backend, b.Name, label)] = qorOf(rep)
				})
			if firstErr != nil {
				return firstErr
			}
			fmt.Fprintf(os.Stderr, "golden: %s/%s done\n", backendName(backend), b.Name)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// suiteState is a suite run's inputs: the pass, the golden QoR, and the
// circuit order of every pass (the seed permutes it).
type suiteState struct {
	spec   suiteSpec
	golden map[string]qor
	passes [][]circuitJobs
}

// suiteSetup builds the run's inputs and warms the flow with one small
// synthesis on the workload's backend.
func suiteSetup(cfg config) (*suiteState, error) {
	spec := suiteSpecFor(cfg.workload)
	if len(cfg.circuits) > 0 {
		keep := make(map[string]bool)
		for _, c := range cfg.circuits {
			keep[c] = true
		}
		var jobs []circuitJobs
		for _, cj := range spec.circuits {
			if keep[cj.name] {
				jobs = append(jobs, cj)
			}
		}
		spec.circuits = jobs
	}
	golden, err := loadGolden(cfg.golden)
	if err != nil {
		return nil, err
	}
	n := max(1, int(cfg.seconds/spec.passSeconds+0.5))
	if cfg.trace {
		n = max(2, n) // an untraced pass to compare the traced one with
	}
	r := rand.New(rand.NewSource(cfg.seed))
	st := &suiteState{spec: spec, golden: golden}
	for i := 0; i < n; i++ {
		order := make([]circuitJobs, len(spec.circuits))
		for j, k := range r.Perm(len(spec.circuits)) {
			order[j] = spec.circuits[k]
		}
		st.passes = append(st.passes, order)
	}
	var werr error
	runCircuit(context.Background(), spec.backend, circuitJobs{"cm42a", []core.Method{core.MethodVI}}, nil,
		func(_ string, _ power.Report, _ time.Duration, err error) {
			if err != nil && werr == nil {
				werr = err
			}
		})
	if werr != nil {
		return nil, fmt.Errorf("warm-up run: %w", werr)
	}
	return st, nil
}

// runSuite measures a suite workload. Untraced passes give the end-to-end
// metrics; in a traced run every second pass runs under an unbounded
// in-memory trace, which gives the per-layer metrics and, against the
// untraced passes, the tracing overhead.
func runSuite(cfg config) (*result, error) {
	st, err := suiteSetup(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Set-up samples are spread over the run, one before every few
	// circuits, so their median reflects the whole run rather than the
	// host's state in its first second. Run times exclude them.
	var setups []float64
	timeSetup := func() error {
		s, err := timeChildSetup(cfg)
		setups = append(setups, s)
		return err
	}
	every := max(1, len(st.passes)*len(st.spec.circuits)/cfg.setupSamples)
	res := &result{values: map[string]float64{}}
	var (
		walls             []float64 // ms per successful untraced run
		untraced, traced  time.Duration
		tracedRuns, count int
		scopes            []*obs.Scope
		cost              runtimeSample // untraced passes only
	)
	for p, order := range st.passes {
		var sc *obs.Scope
		if cfg.trace && p%2 == 1 {
			sc = obs.New(obs.Config{MaxSpans: -1})
		}
		var busy time.Duration
		before := readRuntime()
		for _, cj := range order {
			if count%every == 0 && len(setups) < cfg.setupSamples {
				if err := timeSetup(); err != nil {
					return nil, err
				}
			}
			count++
			runCircuit(ctx, st.spec.backend, cj, sc, func(label string, rep power.Report, wall time.Duration, err error) {
				res.attempted++
				busy += wall
				key := goldenKey(st.spec.backend, cj.name, label)
				switch want, ok := st.golden[key]; {
				case err != nil:
					res.fail("%s: %v", key, err)
				case !ok:
					res.fail("%s: no golden QoR", key)
				case qorOf(rep) != want:
					res.fail("%s: QoR %+v, golden %+v", key, qorOf(rep), want)
				case sc != nil:
					tracedRuns++
				default:
					walls = append(walls, millis(wall))
				}
			})
		}
		after := readRuntime()
		fmt.Fprintf(os.Stderr, "pass %d (traced %v): %v in runs\n", p, sc != nil, busy.Round(time.Millisecond))
		if sc != nil {
			traced += busy
			scopes = append(scopes, sc)
			continue
		}
		untraced += busy
		cost = cost.add(after.sub(before))
	}
	for len(setups) < cfg.setupSamples {
		if err := timeSetup(); err != nil {
			return nil, err
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no untraced run succeeded")
	}
	v := res.values
	v["setup_s"] = median(setups)
	v["throughput_per_s"] = float64(len(walls)) / untraced.Seconds()
	if err := latencyMetrics(v, walls); err != nil {
		return nil, err
	}
	if v["peak_rss_mb"], err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	v["runtime.alloc_mb"] = cost.allocBytes / (1 << 20) / float64(len(walls))
	v["runtime.gc_cpu_frac"] = cost.gcCPU / cost.usedCPU
	v["cpu_ms_per_op"] = cost.processCPU * 1000 / float64(len(walls))
	v["fail_frac"] = float64(res.failed) / float64(res.attempted)
	if cfg.trace {
		if tracedRuns == 0 {
			return nil, fmt.Errorf("no traced run succeeded")
		}
		v["bench.trace_overhead_frac"] = traced.Seconds()/untraced.Seconds()*float64(len(st.passes)-len(scopes))/float64(len(scopes)) - 1
		if err := traceMetrics(cfg, v, scopes, traced, tracedRuns); err != nil {
			return nil, err
		}
		for _, name := range []string{"serve.cache_hit_frac", "serve.client_ms_p50", "serve.service_ms_p50",
			"serve.cache_evictions", "bdd.pool_reuse_frac", "serve.refused_frac", "serve.timeout_frac"} {
			v[name] = 0
		}
	}
	return res, nil
}

// runtimeSample is the process-wide cost counters read around a pass.
type runtimeSample struct {
	allocBytes, gcCPU, usedCPU float64 // runtime/metrics
	processCPU                 float64 // user+system seconds (getrusage)
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.usedCPU + b.usedCPU, a.processCPU + b.processCPU}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU, a.processCPU - b.processCPU}
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
		processCPU: cpu.Seconds(),
	}
}

// layerSpans maps each per-layer time metric onto the spans it sums.
var layerSpans = []struct {
	metric string
	spans  []string
}{
	{"opt.ms", []string{"quick-opt"}},
	{"decomp.ms", []string{"decompose"}},
	{"decomp.bdd_ms", []string{"decomp.probabilities", "decomp.activity", "decomp.final-probabilities"}},
	{"mapper.ms", []string{"map"}},
	{"mapper.curves_ms", []string{"mapper.curves"}},
	{"mapper.select_ms", []string{"mapper.select"}},
	{"mapper.cuts_ms", []string{"mapper.cuts"}},
	{"mapper.verify_ms", []string{"verify-netlist"}},
	{"verify.ms", []string{"bench.verify"}},
}

// traceMetrics derives the per-layer metrics of the traced passes, per
// run, and writes the spans with their self times to a trace file.
func traceMetrics(cfg config, v map[string]float64, scopes []*obs.Scope, wall time.Duration, runs int) error {
	var spans []obs.SpanRecord
	counter := func(name string) (n float64) {
		for _, sc := range scopes {
			n += float64(sc.Counter(name).Value())
		}
		return n
	}
	for _, sc := range scopes {
		spans = append(spans, sc.Spans()...)
		v["bdd.nodes_live_max"] = max(v["bdd.nodes_live_max"], sc.Gauge("bdd.nodes_live_max").Value())
	}
	total := make(map[string]time.Duration)
	for _, sp := range spans {
		total[sp.Name] += sp.Duration()
	}
	perRun := func(d time.Duration) float64 { return millis(d) / float64(runs) }
	for _, l := range layerSpans {
		var d time.Duration
		for _, name := range l.spans {
			d += total[name]
		}
		v[l.metric] = perRun(d)
	}
	self := selfTimes(spans)
	v["bench.self_frac"] = float64(self["bench.run"]+self["bench.verify"]) / float64(wall)
	v["decomp.nodes_planned"] = counter("decomp.nodes_planned") / float64(runs)
	v["mapper.sites_selected"] = counter("mapper.sites_selected") / float64(runs)
	v["mapper.cuts_enumerated"] = counter("mapper.cuts_enumerated") / float64(runs)
	v["mapper.npn_hit_frac"] = hitFrac(counter("mapper.npn_cache_hits"), counter("mapper.npn_cache_misses"))
	covered := total["mapper.curves"] + total["quick-opt"] + total["decompose"] + total["mapper.select"] +
		total["verify-netlist"] + total["bench.verify"]
	fmt.Fprintf(os.Stderr, "trace: %d spans over %v; curves+opt+decomp+select+verify-netlist+verify cover %.1f%% of it\n",
		len(spans), wall.Round(time.Millisecond), 100*float64(covered)/float64(wall))
	return writeTrace(cfg, spans, total, self)
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the time their direct children cover. Children are the
// spans nested inside a span's interval on the same track.
func selfTimes(spans []obs.SpanRecord) map[string]time.Duration {
	byTrack := make(map[int64][]obs.SpanRecord)
	for _, sp := range spans {
		byTrack[sp.Track] = append(byTrack[sp.Track], sp)
	}
	self := make(map[string]time.Duration)
	for _, track := range byTrack {
		// Parents sort before the children they contain: by start, then
		// longest first.
		sort.Slice(track, func(i, j int) bool {
			if track[i].StartUnixNano != track[j].StartUnixNano {
				return track[i].StartUnixNano < track[j].StartUnixNano
			}
			return track[i].DurationNs > track[j].DurationNs
		})
		type open struct {
			name string
			end  int64
		}
		var stack []open
		for _, sp := range track {
			for len(stack) > 0 && stack[len(stack)-1].end <= sp.StartUnixNano {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1].name] -= sp.Duration()
			}
			self[sp.Name] += sp.Duration()
			stack = append(stack, open{sp.Name, sp.StartUnixNano + sp.DurationNs})
		}
	}
	return self
}

// writeTrace writes the traced spans and the per-name totals and self
// times as one JSON file under cfg.out.
func writeTrace(cfg config, spans []obs.SpanRecord, total, self map[string]time.Duration) error {
	type phase struct {
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	phases := make(map[string]phase, len(total))
	for name, d := range total {
		phases[name] = phase{millis(d), millis(self[name])}
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Phases   map[string]phase `json:"phases"`
		Spans    []obs.SpanRecord `json:"spans"`
	}{cfg.workload, cfg.seed, phases, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	fmt.Fprintf(os.Stderr, "trace: wrote %s\n", path)
	return os.WriteFile(path, data, 0o644)
}
