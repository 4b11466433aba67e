package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"

	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/eval"
	"powermap/internal/huffman"
)

// Tables runs the tables command: regeneration of the paper's Tables 1-3,
// Figure 1, the Section 4 summary, and the correlated-input extension.
func Tables(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		table    = fs.String("table", "all", "1, 2, 3, summary, figure1, correlated, backends, or all")
		patterns = fs.Int("patterns", 500, "random patterns per input count for Table 1")
		seed     = fs.Int64("seed", 1993, "random seed")
		subset   = fs.String("circuits", "", "comma-separated benchmark subset for Tables 2/3")
		relax    = fs.Float64("relax", 0.15, "timing slack fraction of the reference run")
		exact    = fs.Bool("exact", false, "use BDD-exact decomposition costs")
		jdir     = fs.String("journal", "", "directory receiving one decision journal per (circuit, method) run; query with pexplain")
		workers  = fs.Int("workers", 0, "worker pool size for the (circuit, method) runs (0 = all CPUs)")
		timeout  = fs.Duration("timeout", 0, "abort the suite after this duration (0 = none)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	bddf := addBDDFlags(fs)
	mapf := addMapFlags(fs)
	tel := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, lut, err := mapf.resolve()
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(errOut, "tables: profile: %v\n", perr)
		}
	}()
	sc := tel.scope(errOut)
	var names []string
	if *subset != "" {
		names = strings.Split(*subset, ",")
	}
	want := strings.ToLower(*table)
	runAll := want == "all"
	base := core.Options{
		Style:   huffman.Static,
		Relax:   relax,
		Exact:   *exact,
		Mapper:  backend,
		LUT:     lut,
		Workers: *workers,
		Obs:     sc,
		BDD:     bddf.config(),
	}

	if runAll || want == "1" {
		fmt.Fprintln(out, "=== Table 1: Modified Huffman optimality (static AND decomposition) ===")
		fmt.Fprintln(out, eval.FormatTable1(eval.Table1(*patterns, *seed)))
		fmt.Fprintln(out, "paper: 100 / 96 / 93 / 88")
		fmt.Fprintln(out)
	}
	if runAll || want == "figure1" {
		figure1(out)
		fmt.Fprintln(out)
	}
	if runAll || want == "correlated" {
		fmt.Fprintln(out, "=== Extension: correlated-input decomposition (Equations 7-9) ===")
		fmt.Fprintln(out, "8-input p-type domino AND; pairs correlated with strength rho;")
		fmt.Fprintln(out, "activity measured by simulating the correlated stream (20k vectors).")
		var rows []eval.CorrelatedResult
		for _, rho := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
			r, err := eval.Correlated(4, rho, 20000, *seed)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Fprintln(out, eval.FormatCorrelated(rows))
	}

	if want == "backends" {
		ctx, cancel := timeoutContext(*timeout)
		defer cancel()
		fmt.Fprintln(out, "=== Mapper backends: structural vs cuts (Method VI, common constraints) ===")
		rows, err := eval.CompareBackends(ctx, base, core.MethodVI, names)
		if err != nil {
			return timeoutError(*timeout, err)
		}
		fmt.Fprintln(out, eval.FormatBackendTable(rows))
		return tel.finish(out, errOut)
	}

	needSuite := runAll || want == "2" || want == "3" || want == "summary"
	if !needSuite {
		return tel.finish(out, errOut)
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	var jc eval.JournalConfig
	if *jdir != "" {
		jc = eval.JournalConfig{Dir: *jdir, RunID: tel.resolveRunID()}
	}
	rows, err := eval.RunSuiteJournaled(ctx, core.Methods(), base, names, jc)
	if err != nil {
		// On expiry eval reports how many of the suite's runs completed
		// before the deadline; surface that as the whole story.
		return timeoutError(*timeout, err)
	}
	if *jdir != "" {
		fmt.Fprintf(errOut, "decision journals written to %s (run %s); query with pexplain\n", *jdir, jc.RunID)
	}
	eval.SortRowsByTableOrder(rows)
	if runAll || want == "2" {
		fmt.Fprintln(out, "=== Table 2: area-delay mapping (Methods I, II, III) ===")
		fmt.Fprintln(out, eval.FormatTable(rows, []core.Method{core.MethodI, core.MethodII, core.MethodIII}))
	}
	if runAll || want == "3" {
		fmt.Fprintln(out, "=== Table 3: power-delay mapping (Methods IV, V, VI) ===")
		fmt.Fprintln(out, eval.FormatTable(rows, []core.Method{core.MethodIV, core.MethodV, core.MethodVI}))
	}
	if runAll || want == "summary" {
		fmt.Fprintln(out, "=== Section 4 summary (measured vs paper) ===")
		fmt.Fprintln(out, eval.FormatSummary(eval.Summarize(rows)))
	}
	return tel.finish(out, errOut)
}

// figure1 reproduces the worked decomposition example.
func figure1(out io.Writer) {
	fmt.Fprintln(out, "=== Figure 1: decomposition changes total switching activity ===")
	_, probs := circuits.Figure1()
	alg := huffman.SignalAlgebra{Gate: huffman.GateAnd, Style: huffman.DominoP}
	leaves := []huffman.Signal{
		huffman.SignalFromProb(probs["a"]),
		huffman.SignalFromProb(probs["b"]),
		huffman.SignalFromProb(probs["c"]),
		huffman.SignalFromProb(probs["d"]),
	}
	leafSum := probs["a"] + probs["b"] + probs["c"] + probs["d"]
	chain := func(order []int) float64 {
		st := leaves[order[0]]
		total := 0.0
		for _, i := range order[1:] {
			st = alg.Merge(st, leaves[i])
			total += alg.Cost(st)
		}
		return total + leafSum
	}
	srA := chain([]int{0, 1, 2, 3})
	ab := alg.Merge(leaves[0], leaves[1])
	cd := alg.Merge(leaves[2], leaves[3])
	srB := alg.Cost(ab) + alg.Cost(cd) + alg.Cost(alg.Merge(ab, cd)) + leafSum
	tr := huffman.Build[huffman.Signal](alg, leaves)
	srH := huffman.TotalCost[huffman.Signal](alg, tr) + leafSum
	fmt.Fprintf(out, "configuration A ((ab)c)d : SR = %.3f   (paper: 2.146)\n", srA)
	fmt.Fprintf(out, "configuration B (ab)(cd) : SR = %.3f   (paper: 2.412)\n", srB)
	fmt.Fprintf(out, "Huffman (optimal)        : SR = %.3f\n", srH)
	if srH > math.Min(srA, srB)+1e-12 {
		fmt.Fprintln(out, "WARNING: Huffman did not match the best configuration")
	}
}
