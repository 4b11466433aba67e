// Package eval regenerates the paper's experimental results (Section 4):
//
//   - Table 1: the optimality rate of the Modified Huffman construction on
//     random static AND decompositions, n = 3..6, against exhaustive
//     enumeration of all decomposition trees;
//   - Tables 2 and 3: the 17-circuit × 6-method comparison reporting gate
//     area, delay and average power;
//   - the summary ratios quoted in the Section 4 text (minpower vs
//     conventional decomposition, bounded-height vs minpower, pd-map vs
//     ad-map).
package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/exec"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/obs"
	"powermap/internal/power"
	"powermap/internal/verify"
)

// Table1Row is one row of Table 1.
type Table1Row struct {
	Inputs         int
	PercentOptimal float64
}

// Table1 reproduces the Table 1 simulation: for each input count n in
// [3,6], patterns random probability vectors are drawn, a static AND
// decomposition is built with the Modified Huffman algorithm, and the
// result is compared against the exhaustive optimum.
func Table1(patterns int, seed int64) []Table1Row {
	r := rand.New(rand.NewSource(seed))
	alg := huffman.SignalAlgebra{Gate: huffman.GateAnd, Style: huffman.Static}
	var rows []Table1Row
	for n := 3; n <= 6; n++ {
		optimal := 0
		for trial := 0; trial < patterns; trial++ {
			leaves := make([]huffman.Signal, n)
			for i := range leaves {
				leaves[i] = huffman.SignalFromProb(r.Float64())
			}
			tr := huffman.BuildModified[huffman.Signal](alg, leaves)
			got := huffman.TotalCost[huffman.Signal](alg, tr)
			_, opt := huffman.Enumerate[huffman.Signal](alg, leaves, 0)
			if got <= opt+1e-9 {
				optimal++
			}
		}
		rows = append(rows, Table1Row{
			Inputs:         n,
			PercentOptimal: 100 * float64(optimal) / float64(patterns),
		})
	}
	return rows
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-17s  %s\n", "numbers of input", "% of getting optimal result")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-17d  %.0f\n", r.Inputs, r.PercentOptimal)
	}
	return b.String()
}

// CircuitRow holds one benchmark's results across methods.
type CircuitRow struct {
	Circuit string
	Results map[core.Method]power.Report
}

// JournalConfig configures per-run provenance capture for a suite. The
// zero value disables journaling entirely.
type JournalConfig struct {
	// Dir receives one JSONL journal per synthesis run: <circuit>-ref.jsonl
	// for each Stage-A reference run and <circuit>-<method>.jsonl for each
	// (circuit, method) run. Empty disables journaling. The directory is
	// created if missing.
	Dir string
	// RunID stamps every journal header, tying the files of one suite
	// invocation together. Empty generates a fresh ID.
	RunID string
}

// RunSuite synthesizes every named benchmark with every method. A nil or
// empty names slice runs the full 17-circuit suite.
//
// Protocol ("given timing constraints", Section 4): for each circuit a
// reference run of Method I with the base Relax fixes the per-output
// required times, and every method is then synthesized under those common
// constraints — the fair comparison behind the paper's "without
// degradation in performance" claim.
//
// The suite fans out across base.Workers workers in two stages: the
// per-circuit reference runs, then every (circuit, method) run. Each task
// synthesizes its own copy of the benchmark (the source network's scratch
// traversal state must not be shared between concurrent runs), and rows
// are assembled in suite order, so results are identical to a sequential
// run for every worker count. On cancellation the error reports how many
// runs completed before expiry.
func RunSuite(ctx context.Context, methods []core.Method, base core.Options, names []string) ([]CircuitRow, error) {
	return RunSuiteJournaled(ctx, methods, base, names, JournalConfig{})
}

// RunSuiteJournaled is RunSuite with decision-provenance capture: when
// jc.Dir is set, every synthesis run (reference and suite) writes its own
// journal file there, sharing jc.RunID in the headers. cmd/pexplain
// queries and diffs the resulting files.
func RunSuiteJournaled(ctx context.Context, methods []core.Method, base core.Options, names []string, jc JournalConfig) (_ []CircuitRow, err error) {
	suite, err := suiteOf(names)
	if err != nil {
		return nil, err
	}
	if jc.Dir != "" {
		if err := os.MkdirAll(jc.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("eval: journal dir: %w", err)
		}
		if jc.RunID == "" {
			jc.RunID = journal.NewRunID()
		}
	}
	// openJournal creates the per-run journal file and threads it into the
	// run's options. Runs inside the worker task that owns o, so each file
	// has exactly one writer. Nil when journaling is off.
	openJournal := func(o *core.Options, b circuits.Benchmark, stage string) (*journal.Journal, error) {
		if jc.Dir == "" {
			return nil, nil
		}
		name := b.Name + "-" + o.Method.String() + ".jsonl"
		if stage == "reference" {
			// Stage-A runs are Method I too; a distinct suffix keeps them
			// from clashing with the Stage-B Method-I journal.
			name = b.Name + "-ref.jsonl"
		}
		jr, err := journal.Create(filepath.Join(jc.Dir, name), journal.Header{
			RunID:     jc.RunID,
			Circuit:   b.Name,
			Method:    o.Method.String(),
			Strategy:  o.Method.Decomposition().String(),
			Objective: o.Method.Mapping().String(),
			Style:     base.Style.String(),
			Stage:     stage,
			Workers:   o.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("eval: %s journal: %w", b.Name, err)
		}
		jr.SetObs(base.Obs)
		o.Journal = jr
		return jr, nil
	}
	// The scope rides the context so the worker pool (and any phase that
	// only sees the context) can instrument the fan-out itself.
	ctx = obs.WithScope(ctx, base.Obs)
	workers, inner := splitWorkers(base.Workers)
	total := len(suite) * (1 + len(methods))
	var done atomic.Int64
	// A failing suite leaves a post-mortem beside its journals: the flight
	// recorder snapshots the span/log/runtime-sample tails at the moment the
	// suite gives up. The per-run core.synthesize capture fired first (and
	// owns the auto-dump), so this record adds the suite-level context.
	defer func() {
		if err != nil {
			base.Obs.Flight().CaptureFailure("eval.run_suite", err,
				"runs_done", done.Load(), "runs_total", int64(total))
		}
	}()
	interrupted := func(err error) error {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return fmt.Errorf("eval: suite interrupted after %d of %d runs: %w", done.Load(), total, err)
		}
		return err
	}

	// Stage A: Method-I reference runs fix each circuit's required times.
	// Every run is tagged with (circuit, method) labels on its context, so
	// the spans and labeled metrics it emits attribute to that job even when
	// many runs interleave across the worker pool.
	reqs, err := exec.Map(exec.WithLabel(ctx, "eval.reference"), workers, len(suite), func(ctx context.Context, i int) (map[string]float64, error) {
		b := suite[i]
		o := base
		o.Method = core.MethodI
		o.Workers = inner
		ctx = obs.WithLabels(ctx, "circuit", b.Name, "method", "I", "stage", "reference")
		span := base.Obs.StartCtx(ctx, "eval.reference")
		defer span.End()
		jr, err := openJournal(&o, b, "reference")
		if err != nil {
			return nil, err
		}
		ref, err := core.SynthesizeContext(ctx, b.Build(), o)
		if cerr := jr.Close(); cerr != nil && err == nil {
			return nil, fmt.Errorf("eval: %s reference journal: %w", b.Name, cerr)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: %s reference run: %w", b.Name, err)
		}
		req := ref.Netlist.OutputArrivals()
		for name, t := range req {
			req[name] = t * 1.001 // absorb rounding in the reference arrivals
		}
		done.Add(1)
		return req, nil
	})
	if err != nil {
		return nil, interrupted(err)
	}

	// Stage B: every (circuit, method) run under the common constraints.
	type runKey struct{ ci, mi int }
	tasks := make([]runKey, 0, len(suite)*len(methods))
	for ci := range suite {
		for mi := range methods {
			tasks = append(tasks, runKey{ci, mi})
		}
	}
	reports, err := exec.Map(exec.WithLabel(ctx, "eval.suite"), workers, len(tasks), func(ctx context.Context, t int) (power.Report, error) {
		k := tasks[t]
		b := suite[k.ci]
		o := base
		o.Method = methods[k.mi]
		o.PORequired = reqs[k.ci]
		o.Workers = inner
		mname := methods[k.mi].String()
		ctx = obs.WithLabels(ctx, "circuit", b.Name, "method", mname)
		span := base.Obs.StartCtx(ctx, "eval.run")
		defer span.End()
		jr, err := openJournal(&o, b, "suite")
		if err != nil {
			return power.Report{}, err
		}
		src := b.Build()
		res, err := core.SynthesizeContext(ctx, src, o)
		if cerr := jr.Close(); cerr != nil && err == nil {
			return power.Report{}, fmt.Errorf("eval: %s method %v journal: %w", b.Name, methods[k.mi], cerr)
		}
		if err != nil {
			return power.Report{}, fmt.Errorf("eval: %s method %v: %w", b.Name, methods[k.mi], err)
		}
		// Every benchmark run is self-verifying: prove source ≡ optimized ≡
		// decomposed ≡ mapped and the report consistent before reporting it.
		if err := verify.CheckResult(ctx, src, res); err != nil {
			return power.Report{}, fmt.Errorf("eval: %s method %v: %w", b.Name, methods[k.mi], err)
		}
		span.SetAttr("gates", res.Report.Gates).SetAttr("power_uw", res.Report.PowerUW)
		base.Obs.Counter("eval.runs").With("circuit", b.Name, "method", mname).Inc()
		base.Obs.Gauge("eval.power_uw").With("circuit", b.Name, "method", mname).Set(res.Report.PowerUW)
		done.Add(1)
		return res.Report, nil
	})
	if err != nil {
		return nil, interrupted(err)
	}
	rows := make([]CircuitRow, len(suite))
	for ci, b := range suite {
		rows[ci] = CircuitRow{Circuit: b.Name, Results: make(map[core.Method]power.Report, len(methods))}
	}
	for t, rep := range reports {
		k := tasks[t]
		rows[k.ci].Results[methods[k.mi]] = rep
	}
	return rows, nil
}

// suiteOf resolves benchmark names in order; a nil or empty slice selects
// the full suite.
func suiteOf(names []string) ([]circuits.Benchmark, error) {
	if len(names) == 0 {
		return circuits.Suite(), nil
	}
	suite := make([]circuits.Benchmark, 0, len(names))
	for _, name := range names {
		b, err := circuits.ByName(name)
		if err != nil {
			return nil, err
		}
		suite = append(suite, b)
	}
	return suite, nil
}

// splitWorkers sizes a suite's pool of runs and the Workers each run gets.
// It fans out across runs, not inside them: runs outnumber cores on any
// real suite, and coarse tasks carry less synchronization overhead than
// nested per-node pools, so every run is sequential when the pool is
// active.
func splitWorkers(workers int) (outer, inner int) {
	outer = exec.Workers(workers)
	if outer > 1 {
		return outer, 1
	}
	return outer, workers
}

// FormatTable renders rows in the paper's Tables 2/3 layout for the given
// methods (three columns of gate area / delay / average power each).
func FormatTable(rows []CircuitRow, methods []core.Method) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "circuit")
	for _, m := range methods {
		fmt.Fprintf(&b, " | %21s", "Method "+m.String())
	}
	fmt.Fprintf(&b, "\n%-8s", "")
	for range methods {
		fmt.Fprintf(&b, " | %6s %6s %7s", "area", "delay", "power")
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Circuit)
		for _, m := range methods {
			rep := r.Results[m]
			fmt.Fprintf(&b, " | %6.0f %6.2f %7.1f", rep.GateArea, rep.Delay, rep.PowerUW)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Summary aggregates the comparison ratios the paper quotes in Section 4.
// All values are mean percentage changes over the circuits (positive =
// increase).
type Summary struct {
	// MinpowerPower is the power change of minpower_t_decomp vs
	// conventional decomposition (pairs II/I and V/IV); paper: ≈ -3.7%.
	MinpowerPower float64
	// MinpowerArea is the matching area change; paper: ≈ +1.4%.
	MinpowerArea float64
	// BHPower and BHDelay compare bounded-height vs plain minpower (pairs
	// III/II and VI/V); paper: ≈ -1.6% each.
	BHPower float64
	BHDelay float64
	// PdPower, PdArea, PdDelay compare pd-map vs ad-map (pairs IV/I, V/II,
	// VI/III); paper: -22% power, +12.4% area, -1.1% delay.
	PdPower float64
	PdArea  float64
	PdDelay float64
}

// Summarize computes the summary ratios from full six-method rows.
func Summarize(rows []CircuitRow) Summary {
	var s Summary
	s.MinpowerPower = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodII].PowerUW, r.Results[core.MethodI].PowerUW),
			pct(r.Results[core.MethodV].PowerUW, r.Results[core.MethodIV].PowerUW),
		}
	})
	s.MinpowerArea = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodII].GateArea, r.Results[core.MethodI].GateArea),
			pct(r.Results[core.MethodV].GateArea, r.Results[core.MethodIV].GateArea),
		}
	})
	s.BHPower = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodIII].PowerUW, r.Results[core.MethodII].PowerUW),
			pct(r.Results[core.MethodVI].PowerUW, r.Results[core.MethodV].PowerUW),
		}
	})
	s.BHDelay = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodIII].Delay, r.Results[core.MethodII].Delay),
			pct(r.Results[core.MethodVI].Delay, r.Results[core.MethodV].Delay),
		}
	})
	s.PdPower = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodIV].PowerUW, r.Results[core.MethodI].PowerUW),
			pct(r.Results[core.MethodV].PowerUW, r.Results[core.MethodII].PowerUW),
			pct(r.Results[core.MethodVI].PowerUW, r.Results[core.MethodIII].PowerUW),
		}
	})
	s.PdArea = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodIV].GateArea, r.Results[core.MethodI].GateArea),
			pct(r.Results[core.MethodV].GateArea, r.Results[core.MethodII].GateArea),
			pct(r.Results[core.MethodVI].GateArea, r.Results[core.MethodIII].GateArea),
		}
	})
	s.PdDelay = meanChange(rows, func(r CircuitRow) []float64 {
		return []float64{
			pct(r.Results[core.MethodIV].Delay, r.Results[core.MethodI].Delay),
			pct(r.Results[core.MethodV].Delay, r.Results[core.MethodII].Delay),
			pct(r.Results[core.MethodVI].Delay, r.Results[core.MethodIII].Delay),
		}
	})
	return s
}

func pct(after, before float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (after - before) / before
}

func meanChange(rows []CircuitRow, f func(CircuitRow) []float64) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		for _, v := range f(r) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatSummary renders the Section 4 comparison alongside the paper's
// reported values.
func FormatSummary(s Summary) string {
	var b strings.Builder
	rows := []struct {
		name     string
		measured float64
		paper    string
	}{
		{"minpower decomp: power (II/I, V/IV)", s.MinpowerPower, "-3.7%"},
		{"minpower decomp: area", s.MinpowerArea, "+1.4%"},
		{"bounded-height: power (III/II, VI/V)", s.BHPower, "-1.6%"},
		{"bounded-height: delay", s.BHDelay, "-1.6%"},
		{"pd-map vs ad-map: power", s.PdPower, "-22%"},
		{"pd-map vs ad-map: area", s.PdArea, "+12.4%"},
		{"pd-map vs ad-map: delay", s.PdDelay, "-1.1%"},
	}
	fmt.Fprintf(&b, "%-40s %10s %10s\n", "comparison", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %+9.1f%% %10s\n", r.name, r.measured, r.paper)
	}
	return b.String()
}

// SuiteNames lists the benchmark names in table order (a convenience for
// CLIs and tests).
func SuiteNames() []string {
	var names []string
	for _, b := range circuits.Suite() {
		names = append(names, b.Name)
	}
	return names
}

// SortRowsByTableOrder orders rows to match the paper's tables.
func SortRowsByTableOrder(rows []CircuitRow) {
	order := map[string]int{}
	for i, n := range SuiteNames() {
		order[n] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return order[rows[i].Circuit] < order[rows[j].Circuit]
	})
}
