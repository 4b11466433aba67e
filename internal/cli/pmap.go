// Package cli implements the command-line tools (pmap, powerest, tables)
// as testable functions over io.Writer; the cmd/ mains are thin wrappers.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"powermap/internal/blif"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/genlib"
	glitchsim "powermap/internal/glitch"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/network"
	"powermap/internal/power"
	"powermap/internal/verify"
)

// Pmap runs the pmap command: the full synthesis flow plus reporting.
// Reports and requested artifacts go to out; flag usage, parse errors and
// -v phase logs go to errOut so piped/-stats output stays machine-readable.
func Pmap(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pmap", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		blifPath = fs.String("blif", "", "input BLIF netlist")
		circuit  = fs.String("circuit", "", "built-in benchmark name (see -list)")
		list     = fs.Bool("list", false, "list built-in benchmarks and exit")
		method   = fs.String("method", "VI", "method I..VI (Tables 2/3 of the paper)")
		style    = fs.String("style", "static", "design style: static, domino-p, domino-n")
		libPath  = fs.String("lib", "", "genlib library file (default: embedded lib2)")
		exact    = fs.Bool("exact", false, "price decomposition merges with global BDDs")
		relax    = fs.Float64("relax", 0.15, "timing slack fraction for defaulted required times")
		epsilon  = fs.Float64("epsilon", 0, "power-delay curve epsilon pruning width in ns (0 = 0.05 ns, negative = no epsilon pruning)")
		piProb   = fs.Float64("prob", 0.5, "uniform P(pi=1) for all primary inputs")
		gates    = fs.Bool("gates", false, "print the mapped gate list")
		prove    = fs.Bool("verify", true, "prove the optimized, decomposed and mapped circuits equivalent to the source")
		write    = fs.String("write", "", "write the mapped netlist as mapped BLIF to this file")
		dot      = fs.String("dot", "", "write the mapped netlist as Graphviz DOT to this file")
		glitch   = fs.Int("glitch", 0, "simulate N vector pairs under the unit-delay model")
		method2  = fs.Bool("method2", false, "use Section 3.1 Method 2 power accounting (ablation)")
		recovery = fs.Bool("recover", false, "run drive-strength power recovery after mapping")
		topPower = fs.Int("top", 0, "print the N most power-hungry signals")
		jpath    = fs.String("journal", "", "write a decision-provenance journal (JSONL) to this file; query it with pexplain")
		workers  = fs.Int("workers", 0, "worker pool size for parallel phases (0 = all CPUs)")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
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
	if *list {
		for _, b := range circuits.Suite() {
			fmt.Fprintf(out, "%-8s %s\n", b.Name, b.Description)
		}
		return nil
	}
	src, err := LoadNetwork(*blifPath, *circuit)
	if err != nil {
		return err
	}
	m, err := core.ParseMethod(*method)
	if err != nil {
		return err
	}
	st, err := huffman.ParseStyle(*style)
	if err != nil {
		return err
	}
	lib, err := loadLibrary(*libPath)
	if err != nil {
		return err
	}
	probs := map[string]float64{}
	for _, name := range src.PINames() {
		probs[name] = *piProb
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(errOut, "pmap: profile: %v\n", perr)
		}
	}()
	sc := tel.scope(errOut)
	var jr *journal.Journal
	if *jpath != "" {
		jr, err = journal.Create(*jpath, journal.Header{
			RunID:     tel.resolveRunID(),
			Circuit:   src.Name,
			Method:    m.String(),
			Strategy:  m.Decomposition().String(),
			Objective: m.Mapping().String(),
			Style:     st.String(),
			Workers:   *workers,
		})
		if err != nil {
			return err
		}
		jr.SetObs(sc)
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	res, err := core.SynthesizeContext(ctx, src, core.Options{
		Method:       m,
		Style:        st,
		Exact:        *exact,
		PIProb:       probs,
		Relax:        relax,
		Epsilon:      *epsilon,
		Mapper:       backend,
		LUT:          lut,
		PowerMethod2: *method2,
		Workers:      *workers,
		Library:      lib,
		Obs:          sc,
		Journal:      jr,
		BDD:          bddf.config(),
	})
	if cerr := jr.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	if err != nil {
		return timeoutError(*timeout, err)
	}
	if *prove {
		span := sc.StartCtx(ctx, "verify-source")
		err := verify.CheckResult(ctx, src, res)
		span.End()
		if err != nil {
			return timeoutError(*timeout, err)
		}
	}

	s := src.Stats()
	fmt.Fprintf(out, "circuit %s: %d PI, %d PO, %d nodes, %d literals\n",
		src.Name, s.PIs, s.POs, s.Nodes, s.Literals)
	fmt.Fprintf(out, "method %s (%v decomposition + %v)\n", m, m.Decomposition(), m.Mapping())
	fmt.Fprintf(out, "quick-opt: %d literals -> %d (%d consts, %d buffers, %d eliminated, %d cubes, %d kernels)\n",
		res.OptStats.LiteralsBefore, res.OptStats.LiteralsAfter,
		res.OptStats.ConstantsPropagated, res.OptStats.BuffersCollapsed,
		res.OptStats.NodesEliminated, res.OptStats.CubesExtracted, res.OptStats.KernelsExtracted)
	fmt.Fprintf(out, "subject graph: %d nodes, depth %.0f, total activity %.3f, %d bounded re-decompositions\n",
		res.Decomp.Network.Stats().Nodes, res.Decomp.Depth,
		res.Decomp.TotalActivity, res.Decomp.Redecompositions)
	fmt.Fprintf(out, "mapped: %d gates, area %.0f, delay %.2f ns, power %.2f uW\n",
		res.Report.Gates, res.Report.GateArea, res.Report.Delay, res.Report.PowerUW)
	if *recovery {
		swaps := res.Netlist.RecoverDrive(lib, nil)
		fmt.Fprintf(out, "drive recovery: %d swaps -> area %.0f, delay %.2f ns, power %.2f uW\n",
			swaps, res.Netlist.Report.GateArea, res.Netlist.Report.Delay, res.Netlist.Report.PowerUW)
	}
	if *glitch > 0 {
		rep, err := glitchsim.Simulate(res.Netlist, res.Decomp.Network, probs, *glitch, 1, power.Default())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "glitch-aware power (%d vectors, unit delay): %.2f uW (zero-delay simulated: %.2f uW)\n",
			rep.Vectors, rep.PowerUW, rep.ZeroDelayPowerUW)
	}
	if *dot != "" {
		if err := writeTo(*dot, res.Netlist.WriteDot); err != nil {
			return err
		}
		fmt.Fprintf(out, "netlist graph written to %s\n", *dot)
	}
	if *write != "" {
		if err := writeTo(*write, res.Netlist.WriteBLIF); err != nil {
			return err
		}
		fmt.Fprintf(out, "mapped netlist written to %s\n", *write)
	}
	if *jpath != "" {
		fmt.Fprintf(out, "decision journal written to %s (run %s); query with pexplain\n", *jpath, jr.RunID())
	}
	if *topPower > 0 {
		rows := res.Netlist.PowerBreakdown()
		if len(rows) > *topPower {
			rows = rows[:*topPower]
		}
		fmt.Fprintf(out, "\ntop %d power consumers:\n", len(rows))
		for _, r := range rows {
			fmt.Fprintf(out, "  %-12s load=%5.2f  E=%.3f  %6.2f uW\n",
				r.Signal.Name, r.Load, r.Activity, r.PowerUW)
		}
	}
	if *gates {
		fmt.Fprintln(out, "\ngate list:")
		for _, g := range res.Netlist.Gates {
			ins := make([]string, len(g.Inputs))
			for i, in := range g.Inputs {
				ins[i] = in.Name
			}
			fmt.Fprintf(out, "  %-10s %-8s (%s)\n", g.Root.Name, g.Cell.Name, strings.Join(ins, ", "))
		}
		fmt.Fprintln(out, "\ncell usage:")
		for _, cc := range res.Netlist.CellCounts() {
			fmt.Fprintf(out, "  %-8s x%d\n", cc.Name, cc.Count)
		}
	}
	return tel.finish(out, errOut)
}

// timeoutContext returns a context honoring the -timeout flag; d <= 0
// means no deadline. The cancel func is always non-nil.
func timeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// timeoutError rewraps a deadline expiry as a one-line user-facing
// message; any other error passes through untouched. The cmd/ mains
// prefix the tool name, so the message doesn't repeat it.
func timeoutError(d time.Duration, err error) error {
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("run exceeded -timeout %v: %w", d, err)
	}
	return err
}

func loadLibrary(path string) (*genlib.Library, error) {
	if path == "" {
		return genlib.Lib2(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return genlib.Parse(f)
}

// LoadNetwork loads a BLIF file or a named built-in benchmark.
func LoadNetwork(blifPath, circuit string) (*network.Network, error) {
	switch {
	case blifPath != "" && circuit != "":
		return nil, fmt.Errorf("give either -blif or -circuit, not both")
	case blifPath != "":
		f, err := os.Open(blifPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return blif.Parse(f)
	case circuit != "":
		b, err := circuits.ByName(circuit)
		if err != nil {
			return nil, err
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("need -blif FILE or -circuit NAME (try -list)")
	}
}
