// Package bench is the pipeline's benchmark-regression harness: it runs
// the evaluation suite under an instrumented scope N times, aggregates
// per-phase wall time and per-run allocation into a schema-versioned JSON
// manifest (BENCH_pipeline.json), and compares the manifest against a
// committed baseline, flagging phases whose best-of-N wall time regressed
// beyond a threshold.
//
// Min-of-N is the comparison statistic: on a noisy shared host the minimum
// wall time is the least-contended observation of the same deterministic
// work, so it drifts far less than the mean. The default threshold is
// generous (25%) because single-CPU CI containers still show ~10%
// run-to-run noise even on minima.
package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"powermap/internal/bdd"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/eval"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/mapper"
	"powermap/internal/obs"
	"powermap/internal/prob"
)

// SchemaVersion identifies the manifest layout; bump it on any
// incompatible change so stale baselines are rejected instead of
// mis-compared.
const SchemaVersion = 1

// DefaultThresholdPct is the regression threshold applied when a caller
// passes 0: a phase fails when its wall time exceeds the baseline by more
// than this percentage.
const DefaultThresholdPct = 25

// DefaultMinWallNs is the noise floor: phases whose baseline and current
// wall times are both below it are reported but never flagged as
// regressions — short phases swing tens of percent on scheduler jitter
// alone (a 30% regression of 10ms is not a signal on a shared host), so
// only the pipeline's dominant phases are strictly enforced by default.
const DefaultMinWallNs = 50e6

// QuickCircuits is the -quick suite: the smallest real benchmark plus the
// smallest stand-in, matching BenchmarkRunSuiteParallel's workload.
var QuickCircuits = []string{"cm42a", "x2"}

// DefaultCircuits is the standard harness workload: small enough to run
// in seconds, wide enough to exercise every decomposition strategy and
// both mapping objectives on distinct circuit shapes.
var DefaultCircuits = []string{"cm42a", "x2", "s208", "alu2"}

// Options configures Run.
type Options struct {
	// Circuits names the benchmarks to synthesize (nil selects
	// DefaultCircuits).
	Circuits []string
	// Methods lists the synthesis methods (nil selects all six).
	Methods []core.Method
	// Runs is the number of repetitions (values < 1 become 1); per-phase
	// wall times take the minimum over runs.
	Runs int
	// Workers is forwarded to the pipeline (0 = all CPUs).
	Workers int
	// GitRev, Command and Note are recorded verbatim in the manifest.
	GitRev  string
	Command string
	Note    string
	// Wide additionally runs the wide-BDD workload (an exact probability
	// model of WideCircuit with tight GC/reorder thresholds, with and
	// without sifting) and records its peak-live-node and GC counters as
	// manifest metrics.
	Wide bool
	// Cuts additionally runs the suite once with the cut-based NPN mapper
	// backend under its own scope, recording its phases as "cuts."-prefixed
	// entries and its NPN-cache/AIG counters as "cuts."-prefixed metrics.
	// The manifest's workload identity fields (Circuits, Methods, Workers)
	// are untouched, so baselines without the cuts leg stay comparable.
	Cuts bool
	// JournalDir, when set, captures decision-provenance journals for the
	// final repetition only (journaling the timed repetitions would perturb
	// the phases being measured) and cross-checks the fingerprint counters
	// against the journal event counts before the manifest is returned.
	JournalDir string
	// RunID is stamped into the manifest and every journal header; empty
	// generates one when JournalDir is set.
	RunID string
	// SampleInterval, when positive, runs the runtime-resource sampler on
	// each repetition's scope at this cadence (heap, GC pauses, goroutines),
	// so bench runs leave resource watermarks beside their wall times.
	SampleInterval time.Duration
	// Budgets installs per-phase SLOs on each repetition's scope; a breach
	// fails the bench run, on the theory that a benchmark exceeding its
	// declared budget is itself a regression.
	Budgets []obs.Budget
	// FlightPath arms the flight recorder's auto-dump on each repetition's
	// scope: the first failing run leaves a post-mortem JSON there.
	FlightPath string
}

// WideCircuit is the benchmark the wide-BDD workload builds exact global
// BDDs for. Chosen because its DFS variable order is measurably
// improvable: sifting cuts peak live nodes by roughly a third, so the
// recorded pair of peaks also acts as a regression check on the reorderer.
const WideCircuit = "s344"

// wideBDDConfig returns the kernel tuning of the wide workload: thresholds
// far below the defaults so GC and (optionally) sifting actually trigger
// on a benchmark-sized circuit.
func wideBDDConfig(reorder bool) bdd.Config {
	return bdd.Config{GCThreshold: 256, Reorder: reorder, ReorderThreshold: 256}
}

// wideWorkload builds the exact probability model of WideCircuit twice —
// fixed DFS order, then with dynamic sifting — and returns the kernel
// fingerprints of both runs.
func wideWorkload(ctx context.Context) (map[string]float64, error) {
	b, err := circuits.ByName(WideCircuit)
	if err != nil {
		return nil, fmt.Errorf("bench: wide workload: %w", err)
	}
	run := func(reorder bool) (bdd.Stats, error) {
		model, err := prob.ComputeWith(ctx, b.Build(), nil, huffman.Static, wideBDDConfig(reorder))
		if err != nil {
			return bdd.Stats{}, fmt.Errorf("bench: wide workload (reorder=%v): %w", reorder, err)
		}
		return model.Manager().Stats(), nil
	}
	base, err := run(false)
	if err != nil {
		return nil, err
	}
	sifted, err := run(true)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"bdd.wide_peak_live_nodes":         float64(base.PeakLive),
		"bdd.wide_peak_live_nodes_reorder": float64(sifted.PeakLive),
		"bdd.wide_gc_runs":                 float64(base.GCRuns),
		"bdd.wide_gc_runs_reorder":         float64(sifted.GCRuns),
		"bdd.wide_reorder_runs":            float64(sifted.ReorderRuns),
		"bdd.wide_reorder_swaps":           float64(sifted.ReorderSwaps),
	}, nil
}

// PhaseStat is one phase's aggregated cost in a Manifest.
type PhaseStat struct {
	// Spans is the number of spans recorded under this phase name in one
	// run (identical across runs: the pipeline is deterministic).
	Spans int `json:"spans"`
	// WallNs is the minimum over runs of the summed span wall time.
	WallNs int64 `json:"wall_ns"`
}

// phaseStat is one run's cost of a phase, read from its phase_seconds
// histogram.
func phaseStat(ps obs.HistogramStats) PhaseStat {
	return PhaseStat{Spans: int(ps.Count), WallNs: int64(math.Round(ps.Sum * 1e9))}
}

// Host describes the machine a manifest was produced on.
type Host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Manifest is the serialized benchmark result (BENCH_pipeline.json).
type Manifest struct {
	Schema   int      `json:"schema"`
	Name     string   `json:"name"`
	RunID    string   `json:"run_id,omitempty"`
	Date     string   `json:"date,omitempty"`
	GitRev   string   `json:"git_rev,omitempty"`
	Command  string   `json:"command,omitempty"`
	Note     string   `json:"note,omitempty"`
	Host     Host     `json:"host"`
	Circuits []string `json:"circuits"`
	Methods  []string `json:"methods"`
	Runs     int      `json:"runs"`
	Workers  int      `json:"workers"`
	// WallNs is the minimum end-to-end suite wall time over runs.
	WallNs int64 `json:"wall_ns"`
	// AllocBytes is the minimum heap allocation delta over runs.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Phases maps phase (span) name to its aggregated cost.
	Phases map[string]PhaseStat `json:"phases"`
	// Metrics records selected pipeline counters/gauges from the final
	// run, as workload fingerprints: if these move, the comparison is
	// between different workloads, not a perf change.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run executes the suite opts.Runs times and aggregates the manifest.
func Run(ctx context.Context, opts Options) (*Manifest, error) {
	circuitNames := opts.Circuits
	if len(circuitNames) == 0 {
		circuitNames = DefaultCircuits
	}
	methods := opts.Methods
	if len(methods) == 0 {
		methods = core.Methods()
	}
	runs := opts.Runs
	if runs < 1 {
		runs = 1
	}
	if opts.JournalDir != "" && opts.RunID == "" {
		opts.RunID = journal.NewRunID()
	}
	m := &Manifest{
		Schema:   SchemaVersion,
		Name:     "pipeline",
		RunID:    opts.RunID,
		Date:     time.Now().UTC().Format("2006-01-02"),
		GitRev:   opts.GitRev,
		Command:  opts.Command,
		Note:     opts.Note,
		Circuits: circuitNames,
		Runs:     runs,
		Workers:  opts.Workers,
		Host: Host{
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
		Phases: map[string]PhaseStat{},
	}
	for _, mm := range methods {
		m.Methods = append(m.Methods, mm.String())
	}
	for run := 0; run < runs; run++ {
		sc := obs.New(obs.Config{RunID: opts.RunID})
		sc.SetBudgets(opts.Budgets)
		sc.Flight().SetAutoDump(opts.FlightPath)
		var sampler *obs.RuntimeSampler
		if opts.SampleInterval > 0 {
			sampler = sc.StartRuntimeSampler(ctx, opts.SampleInterval)
		}
		base := core.Options{Obs: sc, Workers: opts.Workers}
		// Journal only the final repetition: the earlier ones supply the
		// min-of-N timing, and journal writes would perturb them.
		var jc eval.JournalConfig
		if opts.JournalDir != "" && run == runs-1 {
			jc = eval.JournalConfig{Dir: opts.JournalDir, RunID: opts.RunID}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := eval.RunSuiteJournaled(ctx, methods, base, circuitNames, jc)
		wall := time.Since(start).Nanoseconds()
		sampler.Stop()
		if err != nil {
			return nil, fmt.Errorf("bench: run %d: %w", run+1, err)
		}
		if n := sc.BreachCount(); n > 0 {
			br := sc.Breaches()
			worst := br[len(br)-1]
			return nil, fmt.Errorf("bench: run %d: %d SLO budget breach(es), e.g. %s %s (%d > %d)",
				run+1, n, worst.Phase, worst.Kind, worst.Value, worst.Limit)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc

		if run == 0 || wall < m.WallNs {
			m.WallNs = wall
		}
		if run == 0 || alloc < m.AllocBytes {
			m.AllocBytes = alloc
		}
		sn := sc.Snapshot()
		for name, ps := range sn.PhaseSeconds() {
			cur := phaseStat(ps)
			st, ok := m.Phases[name]
			if !ok || cur.WallNs < st.WallNs {
				st.WallNs = cur.WallNs
			}
			st.Spans = max(st.Spans, cur.Spans)
			m.Phases[name] = st
		}
		if run == runs-1 {
			m.Metrics = fingerprintMetrics(sn)
		}
	}
	if opts.Wide {
		start := time.Now()
		wide, err := wideWorkload(ctx)
		if err != nil {
			return nil, err
		}
		m.Phases["bench.wide-bdd"] = PhaseStat{Spans: 1, WallNs: time.Since(start).Nanoseconds()}
		if m.Metrics == nil {
			m.Metrics = map[string]float64{}
		}
		for k, v := range wide {
			m.Metrics[k] = v
		}
	}
	if opts.Cuts {
		if err := cutsWorkload(ctx, m, methods, circuitNames, opts.Workers); err != nil {
			return nil, err
		}
	}
	if opts.JournalDir != "" {
		if err := crossCheckJournals(opts.JournalDir, m.Metrics); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// cutsWorkload runs the suite once with the cut-based NPN mapper backend
// under its own scope and folds "cuts."-prefixed phases and metrics into
// the manifest. Prefixing keeps the cuts leg out of the structural phases'
// baselines: old manifests simply list the new entries as missing, which
// Compare reports as informational, never as a regression.
func cutsWorkload(ctx context.Context, m *Manifest, methods []core.Method, circuitNames []string, workers int) error {
	sc := obs.New(obs.Config{})
	base := core.Options{Obs: sc, Workers: workers, Mapper: mapper.BackendCuts}
	start := time.Now()
	if _, err := eval.RunSuite(ctx, methods, base, circuitNames); err != nil {
		return fmt.Errorf("bench: cuts workload: %w", err)
	}
	m.Phases["bench.cuts-suite"] = PhaseStat{Spans: 1, WallNs: time.Since(start).Nanoseconds()}
	sn := sc.Snapshot()
	for name, ps := range sn.PhaseSeconds() {
		m.Phases["cuts."+name] = phaseStat(ps)
	}
	if m.Metrics == nil {
		m.Metrics = map[string]float64{}
	}
	for _, key := range []string{"mapper.npn_cache_hits", "mapper.npn_cache_misses", "mapper.cuts_enumerated"} {
		if v, ok := sn.Counters[key]; ok {
			m.Metrics["cuts."+key] = float64(v)
		}
	}
	for _, key := range []string{"mapper.npn_classes", "aig.nodes", "aig.strash_dedup"} {
		if v, ok := sn.Gauges[key]; ok {
			m.Metrics["cuts."+key] = v
		}
	}
	return nil
}

// crossCheckJournals verifies the journaled final repetition against the
// fingerprint counters of the same repetition: the journals must contain
// exactly one decomp.node event per planned node and one map.site event
// per selected gate. A mismatch means the provenance stream dropped or
// duplicated decisions, so the manifest is rejected.
func crossCheckJournals(dir string, metrics map[string]float64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("bench: journal cross-check: %w", err)
	}
	var decompNodes, mapSites float64
	files := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		run, err := journal.ReadRunFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("bench: journal cross-check: %s: %w", e.Name(), err)
		}
		decompNodes += float64(run.Counts[journal.TypeDecompNode])
		mapSites += float64(run.Counts[journal.TypeMapSite])
		files++
	}
	if files == 0 {
		return fmt.Errorf("bench: journal cross-check: no .jsonl files in %s", dir)
	}
	if want := metrics["decomp.nodes_planned"]; decompNodes != want {
		return fmt.Errorf("bench: journal cross-check: %g decomp.node events vs decomp.nodes_planned=%g", decompNodes, want)
	}
	if want := metrics["mapper.sites_selected"]; mapSites != want {
		return fmt.Errorf("bench: journal cross-check: %g map.site events vs mapper.sites_selected=%g", mapSites, want)
	}
	return nil
}

// fingerprintMetrics extracts workload-identity metrics from a snapshot:
// monotone counts that are bit-identical across runs of the same suite.
func fingerprintMetrics(sn *obs.Snapshot) map[string]float64 {
	keep := map[string]bool{
		"decomp.nodes_planned":   true,
		"timing.nodes_annotated": true,
		"mapper.nodes_covered":   true,
		"mapper.sites_selected":  true,
	}
	out := map[string]float64{}
	for key, v := range sn.Counters {
		if keep[key] {
			out[key] = float64(v)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Delta is one phase's baseline-vs-current comparison.
type Delta struct {
	Phase      string
	BaselineNs int64
	CurrentNs  int64
	// Pct is the relative change in percent (positive = slower).
	Pct float64
	// Regressed is set when Pct exceeds the comparison threshold.
	Regressed bool
}

// Comparison is the result of Compare.
type Comparison struct {
	ThresholdPct float64
	MinWallNs    int64
	// Deltas holds one entry per phase present in both manifests, plus
	// the synthetic "total" phase for the end-to-end wall time, sorted by
	// descending Pct (worst regression first).
	Deltas []Delta
	// MissingInBaseline lists current phases the baseline lacks (new
	// instrumentation — informational, never a regression).
	MissingInBaseline []string
	// MissingInCurrent lists baseline phases the current run lacks
	// (removed instrumentation — informational).
	MissingInCurrent []string
	// Err is set when the manifests are not comparable (schema or
	// workload mismatch); Deltas is empty in that case.
	Err error
}

// Regressions returns the deltas that exceeded the threshold.
func (c Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Compare evaluates current against baseline with the given regression
// threshold in percent (0 selects DefaultThresholdPct) and noise floor in
// nanoseconds (0 selects DefaultMinWallNs; negative disables the floor).
// Phases below the floor in both manifests are compared but never flagged.
// Manifests with different schemas or workloads (circuits, methods,
// workers) are not comparable and yield a Comparison with Err set.
func Compare(baseline, current *Manifest, thresholdPct float64, minWallNs int64) Comparison {
	if thresholdPct <= 0 {
		thresholdPct = DefaultThresholdPct
	}
	if minWallNs == 0 {
		minWallNs = DefaultMinWallNs
	}
	c := Comparison{ThresholdPct: thresholdPct, MinWallNs: minWallNs}
	if baseline.Schema != current.Schema {
		c.Err = fmt.Errorf("bench: schema mismatch: baseline v%d vs current v%d", baseline.Schema, current.Schema)
		return c
	}
	if !equalStrings(baseline.Circuits, current.Circuits) || !equalStrings(baseline.Methods, current.Methods) || baseline.Workers != current.Workers {
		c.Err = fmt.Errorf("bench: workload mismatch: baseline (%v × %v, workers=%d) vs current (%v × %v, workers=%d)",
			baseline.Circuits, baseline.Methods, baseline.Workers,
			current.Circuits, current.Methods, current.Workers)
		return c
	}
	add := func(phase string, base, cur int64) {
		d := Delta{Phase: phase, BaselineNs: base, CurrentNs: cur}
		if base > 0 {
			d.Pct = 100 * float64(cur-base) / float64(base)
			d.Regressed = d.Pct > thresholdPct && (base >= minWallNs || cur >= minWallNs)
		}
		c.Deltas = append(c.Deltas, d)
	}
	add("total", baseline.WallNs, current.WallNs)
	for phase, cur := range current.Phases {
		base, ok := baseline.Phases[phase]
		if !ok {
			c.MissingInBaseline = append(c.MissingInBaseline, phase)
			continue
		}
		add(phase, base.WallNs, cur.WallNs)
	}
	for phase := range baseline.Phases {
		if _, ok := current.Phases[phase]; !ok {
			c.MissingInCurrent = append(c.MissingInCurrent, phase)
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool {
		if c.Deltas[i].Pct != c.Deltas[j].Pct {
			return c.Deltas[i].Pct > c.Deltas[j].Pct
		}
		return c.Deltas[i].Phase < c.Deltas[j].Phase
	})
	sort.Strings(c.MissingInBaseline)
	sort.Strings(c.MissingInCurrent)
	return c
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
