package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"powermap/internal/bench"
	"powermap/internal/core"
)

// Pbench runs the benchmark-regression harness: N instrumented runs of
// the evaluation suite aggregated into a BENCH_pipeline.json manifest,
// compared against a committed baseline. Returns an error (non-zero exit
// in cmd/pbench) when a phase regresses beyond -threshold and -fail is
// set.
func Pbench(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		runs      = fs.Int("runs", 3, "repetitions; per-phase wall times take the best (minimum) run")
		quick     = fs.Bool("quick", false, "use the small 2-circuit workload (CI-friendly)")
		circuits  = fs.String("circuits", "", "comma-separated benchmark subset (overrides -quick)")
		methodsF  = fs.String("methods", "", "comma-separated method subset, e.g. I,IV (default all six)")
		workers   = fs.Int("workers", 0, "worker pool size for parallel phases (0 = all CPUs)")
		outPath   = fs.String("out", "BENCH_pipeline.json", "write the result manifest to this file")
		basePath  = fs.String("baseline", "", "baseline manifest to compare against (default: the -out file before it is overwritten)")
		threshold = fs.Float64("threshold", bench.DefaultThresholdPct, "regression threshold in percent")
		floorMs   = fs.Float64("floor", bench.DefaultMinWallNs/1e6, "noise floor in ms: phases faster than this are never flagged")
		failFlag  = fs.Bool("fail", true, "exit non-zero when a phase regresses beyond -threshold")
		gitRev    = fs.String("rev", "", "git revision to record in the manifest")
		note      = fs.String("note", "", "free-form note to record in the manifest")
		wide      = fs.Bool("wide", true, "also run the wide-BDD workload and record peak-node/GC/reorder metrics")
		cuts      = fs.Bool("cuts", false, "also run the suite once with the cut-based NPN mapper backend, recording cuts.-prefixed phases and metrics")
		jdir      = fs.String("journal-dir", "", "directory receiving the final run's decision journals, cross-checked against the fingerprint counters")
		runID     = fs.String("run-id", "", "run identifier stamped into the manifest and journal headers (default: generated when -journal-dir is set)")
		trend     = fs.String("trend", "", "append this run to the JSONL trend ledger at this path (e.g. BENCH_history.jsonl) and print the last-5-runs delta table")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	)
	// pbench predates the shared telemetry bundle and defines its own
	// -run-id, so it registers the obs flag set directly instead of
	// addTelemetryFlags; the flags feed bench.Options, which applies them to
	// each repetition's scope.
	obsf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := bench.Options{
		Runs:           *runs,
		Workers:        *workers,
		GitRev:         *gitRev,
		Note:           *note,
		Wide:           *wide,
		Cuts:           *cuts,
		JournalDir:     *jdir,
		RunID:          *runID,
		Command:        "pbench " + strings.Join(args, " "),
		SampleInterval: *obsf.sampleInterval,
		Budgets:        obsf.budgets,
		FlightPath:     *obsf.flight,
	}
	if *jdir != "" {
		if err := os.MkdirAll(*jdir, 0o755); err != nil {
			return err
		}
	}
	if *quick {
		opts.Circuits = bench.QuickCircuits
	}
	if *circuits != "" {
		opts.Circuits = splitList(*circuits)
	}
	if *methodsF != "" {
		for _, name := range splitList(*methodsF) {
			m, err := core.ParseMethod(name)
			if err != nil {
				return err
			}
			opts.Methods = append(opts.Methods, m)
		}
	}

	// Load the baseline before running (and before -out is overwritten,
	// since the baseline defaults to the previous -out manifest — so two
	// back-to-back pbench runs compare against each other).
	baselinePath := *basePath
	if baselinePath == "" {
		baselinePath = *outPath
	}
	baseline, err := bench.ReadManifestFile(baselinePath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		fmt.Fprintf(errOut, "pbench: no baseline at %s; recording a fresh manifest\n", baselinePath)
		baseline = nil
	case err != nil:
		return err
	}

	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	fmt.Fprintf(errOut, "pbench: %d run(s) of %s × %s, workers=%d\n",
		max(*runs, 1), describeList(opts.Circuits, bench.DefaultCircuits),
		describeList(methodNames(opts.Methods), []string{"I..VI"}), *workers)
	m, err := bench.Run(ctx, opts)
	if err != nil {
		return timeoutError(*timeout, err)
	}
	if err := bench.WriteManifestFile(*outPath, m); err != nil {
		return err
	}
	fmt.Fprintf(out, "suite wall (best of %d): %.1f ms, alloc %.1f MB — manifest written to %s\n",
		m.Runs, float64(m.WallNs)/1e6, float64(m.AllocBytes)/(1<<20), *outPath)
	if *jdir != "" {
		fmt.Fprintf(out, "decision journals written to %s (run %s, cross-checked against fingerprint counters)\n", *jdir, m.RunID)
	}
	if *trend != "" {
		if err := bench.AppendHistoryFile(*trend, bench.HistoryFromManifest(m)); err != nil {
			return err
		}
		entries, err := bench.ReadHistoryFile(*trend)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nbench trend (%s, last %d of %d):\n%s",
			*trend, min(5, len(entries)), len(entries), bench.FormatTrend(entries, 5))
	}

	if baseline == nil {
		return nil
	}
	floor := int64(*floorMs * 1e6)
	if *floorMs <= 0 {
		floor = -1
	}
	cmp := bench.Compare(baseline, m, *threshold, floor)
	if cmp.Err != nil {
		return cmp.Err
	}
	printComparison(out, cmp)
	if regs := cmp.Regressions(); len(regs) > 0 && *failFlag {
		return fmt.Errorf("%d phase(s) regressed beyond %.0f%% (worst: %s %+.1f%%)",
			len(regs), cmp.ThresholdPct, regs[0].Phase, regs[0].Pct)
	}
	return nil
}

// printComparison renders the baseline-vs-current table, worst first.
func printComparison(out io.Writer, cmp bench.Comparison) {
	fmt.Fprintf(out, "\n%-28s %12s %12s %8s\n", "phase", "baseline", "current", "delta")
	for _, d := range cmp.Deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(out, "%-28s %10.2fms %10.2fms %+7.1f%%%s\n",
			d.Phase, float64(d.BaselineNs)/1e6, float64(d.CurrentNs)/1e6, d.Pct, mark)
	}
	if len(cmp.MissingInBaseline) > 0 {
		fmt.Fprintf(out, "new phases (no baseline): %s\n", strings.Join(cmp.MissingInBaseline, ", "))
	}
	if len(cmp.MissingInCurrent) > 0 {
		fmt.Fprintf(out, "phases gone from current run: %s\n", strings.Join(cmp.MissingInCurrent, ", "))
	}
	if len(cmp.Regressions()) == 0 {
		fmt.Fprintf(out, "no regressions beyond %.0f%%\n", cmp.ThresholdPct)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func methodNames(ms []core.Method) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.String())
	}
	return out
}

func describeList(items, fallback []string) string {
	if len(items) == 0 {
		items = fallback
	}
	return "{" + strings.Join(items, ",") + "}"
}
