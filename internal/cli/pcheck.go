package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"

	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/mapper"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/verify"
)

// Pcheck runs the pcheck command: formal verification of the synthesis flow
// on a BLIF netlist, a built-in benchmark, seeded random networks, or all
// three. For every requested method it synthesizes the circuit and proves
// source ≡ optimized ≡ decomposed ≡ mapped with global ROBDDs, audits every
// power-delay curve for the non-inferiority invariant, and cross-checks the
// mapped report against independent recomputations. It returns a non-nil
// error (so the command exits nonzero) on any violation, carrying a
// counterexample input cube when the failure is functional.
func Pcheck(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pcheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		blifPath = fs.String("blif", "", "input BLIF netlist")
		circuit  = fs.String("circuit", "", "built-in benchmark name (see -list)")
		list     = fs.Bool("list", false, "list built-in benchmarks and exit")
		libPath  = fs.String("lib", "", "genlib library file (default: embedded lib2)")
		methodsF = fs.String("methods", "I,VI", "comma-separated methods to check, or \"all\"")
		styleF   = fs.String("style", "static", "design style: static, domino-p, domino-n")
		relax    = fs.Float64("relax", 0.15, "timing slack fraction for defaulted required times")
		workers  = fs.Int("workers", 0, "worker pool size for parallel phases (0 = all CPUs)")
		randomN  = fs.Int("random", 0, "also verify N seeded random networks end to end")
		huffN    = fs.Int("huffman", 0, "also check N Huffman/package-merge instances against the enumeration oracle")
		seed     = fs.Int64("seed", 1, "base seed for -random and -huffman")
		jpath    = fs.String("journal", "", "write decision-provenance journals (JSONL) to this path; with multiple checks the circuit and method are appended to the name")
		inject   = fs.Bool("inject", false, "corrupt one mapped gate before checking; the checker must reject it (self-test, always exits nonzero)")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
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
	methods, err := parseMethods(*methodsF)
	if err != nil {
		return err
	}
	st, err := huffman.ParseStyle(*styleF)
	if err != nil {
		return err
	}
	lib, err := loadLibrary(*libPath)
	if err != nil {
		return err
	}
	sc := tel.scope(errOut)
	// Synthesis checks each get their own journal. A single check uses
	// -journal verbatim; multiple checks derive per-check file names so the
	// journals don't overwrite each other.
	synthChecks := *randomN
	if *blifPath != "" || *circuit != "" {
		synthChecks += len(methods)
	}
	openCheckJournal := func(name string, m core.Method) (*journal.Journal, error) {
		if *jpath == "" {
			return nil, nil
		}
		path := *jpath
		if synthChecks > 1 {
			ext := filepath.Ext(path)
			path = strings.TrimSuffix(path, ext) + "-" + name + "-" + m.String() + ext
		}
		jr, err := journal.Create(path, journal.Header{
			RunID:     tel.resolveRunID(),
			Circuit:   name,
			Method:    m.String(),
			Strategy:  m.Decomposition().String(),
			Objective: m.Mapping().String(),
			Style:     st.String(),
			Stage:     "pcheck",
			Workers:   *workers,
		})
		if err != nil {
			return nil, err
		}
		jr.SetObs(sc)
		return jr, nil
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	ctx = obs.WithScope(ctx, sc)
	base := core.Options{
		Style:   st,
		Relax:   relax,
		Mapper:  backend,
		LUT:     lut,
		Workers: *workers,
		Library: lib,
		Obs:     sc,
		BDD:     bddf.config(),
	}
	checks := 0
	if *blifPath != "" || *circuit != "" {
		src, err := LoadNetwork(*blifPath, *circuit)
		if err != nil {
			return err
		}
		for _, m := range methods {
			jr, err := openCheckJournal(src.Name, m)
			if err != nil {
				return err
			}
			o := base
			o.Method, o.Journal = m, jr
			err = checkOne(ctx, out, src, o, *inject)
			if cerr := jr.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("journal: %w", cerr)
			}
			if err != nil {
				return timeoutError(*timeout, err)
			}
			checks++
		}
	} else if *inject {
		return fmt.Errorf("-inject needs a circuit: give -blif FILE or -circuit NAME")
	}
	for i := 0; i < *randomN; i++ {
		s := *seed + int64(i)
		src := verify.RandomNetwork(fmt.Sprintf("rand%04d", s), verify.RandConfig{Seed: s})
		m := methods[i%len(methods)]
		jr, err := openCheckJournal(src.Name, m)
		if err != nil {
			return err
		}
		o := base
		o.Method, o.Journal = m, jr
		if backend == mapper.BackendStructural && i%2 == 1 {
			// A dag run alternates with tree covering on odd seeds.
			o.Mapper = mapper.BackendTree
		}
		err = checkOne(ctx, out, src, o, false)
		if cerr := jr.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("journal: %w", cerr)
		}
		if err != nil {
			return timeoutError(*timeout, err)
		}
		checks++
	}
	if *huffN > 0 {
		if err := checkHuffmanTrials(out, st, *seed, *huffN); err != nil {
			return err
		}
		checks++
	}
	if checks == 0 {
		return fmt.Errorf("nothing to check: need -blif FILE, -circuit NAME, -random N, or -huffman N")
	}
	fmt.Fprintln(out, "pcheck: all checks passed")
	return tel.finish(out, errOut)
}

// parseMethods resolves a comma-separated method list ("I,VI") or "all".
func parseMethods(s string) ([]core.Method, error) {
	if strings.EqualFold(s, "all") {
		return core.Methods(), nil
	}
	var out []core.Method
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := core.ParseMethod(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no methods in %q", s)
	}
	return out, nil
}

// checkOne synthesizes src under o (one method) and runs the full
// verification chain: curve audit during mapping, end-to-end equivalence,
// report consistency. With inject it corrupts the mapped netlist first and
// demands the checker reject it.
func checkOne(ctx context.Context, out io.Writer, src *network.Network, o core.Options, inject bool) error {
	m, sc := o.Method, o.Obs
	ctx = obs.WithLabels(ctx, "circuit", src.Name, "method", m.String())
	span := sc.StartCtx(ctx, "pcheck.check")
	defer span.End()
	var audit verify.CurveAuditor
	o.CurveAudit = audit.Hook()
	res, err := core.SynthesizeContext(ctx, src, o)
	if err != nil {
		return fmt.Errorf("%s method %s: synthesize: %w", src.Name, m, err)
	}
	if err := audit.Err(); err != nil {
		return fmt.Errorf("%s method %s: curve invariant: %w", src.Name, m, err)
	}
	span.SetAttr("curves_audited", audit.Checked()).SetAttr("gates", res.Report.Gates)
	if inject {
		return injectViolation(ctx, out, src, res)
	}
	vspan := sc.StartCtx(ctx, "pcheck.verify")
	err = verify.CheckResult(ctx, src, res)
	vspan.End()
	if err != nil {
		return fmt.Errorf("%s method %s: %w", src.Name, m, err)
	}
	fmt.Fprintf(out, "ok %-8s method %-3s: %d gates equivalent, report consistent, %d curves audited\n",
		src.Name, m, res.Report.Gates, audit.Checked())
	return nil
}

// injectViolation swaps one mapped gate's cell for a same-pin-count cell
// with a different function and demands the checker reject the result. The
// detection comes back as an error so pcheck exits nonzero; a corruption
// the checker misses is itself an error. The self-test never exits zero.
func injectViolation(ctx context.Context, out io.Writer, src *network.Network, res *core.Result) error {
	for _, g := range res.Netlist.Gates {
		orig := g.Cell
		for _, c := range res.Options.Library.Cells {
			if c == orig || len(c.Pins) != len(orig.Pins) || c.Cover().Equal(orig.Cover()) {
				continue
			}
			g.Cell = c
			err := verify.CheckResult(ctx, src, res)
			if err == nil {
				g.Cell = orig // masked downstream; try another injection site
				continue
			}
			fmt.Fprintf(out, "injected corruption: gate %s cell %s -> %s\n", g.Root.Name, orig.Name, c.Name)
			return fmt.Errorf("injected violation detected: %w", err)
		}
	}
	return fmt.Errorf("injected corruption went undetected by the checker")
}

// checkHuffmanTrials runs n random Huffman and package-merge instances
// (2..6 leaves, so the exhaustive enumeration oracle is exact) through the
// optimality invariants for both gate types.
func checkHuffmanTrials(out io.Writer, st huffman.Style, seed int64, n int) error {
	r := rand.New(rand.NewSource(seed))
	gates := []huffman.Gate{huffman.GateAnd, huffman.GateOr}
	for i := 0; i < n; i++ {
		k := 2 + r.Intn(5)
		probs := make([]float64, k)
		for j := range probs {
			probs[j] = 0.05 + 0.9*r.Float64()
		}
		g := gates[i%len(gates)]
		if err := verify.CheckHuffmanOptimal(g, st, probs); err != nil {
			return fmt.Errorf("huffman trial %d: %w", i, err)
		}
		limit := 1 + r.Intn(k)
		for 1<<limit < k {
			limit++ // a binary tree on k leaves needs height >= ceil(log2 k)
		}
		if err := verify.CheckBoundedHeight(g, st, probs, limit); err != nil {
			return fmt.Errorf("huffman trial %d (height limit %d): %w", i, limit, err)
		}
	}
	fmt.Fprintf(out, "ok huffman : %d trials (%v) against the enumeration oracle\n", n, st)
	return nil
}
