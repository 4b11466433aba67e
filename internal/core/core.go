// Package core integrates the paper's contribution into one synthesis
// flow: technology-independent quick-opt (the SIS rugged stand-in),
// power-efficient technology decomposition (Section 2), and power-efficient
// technology mapping (Section 3). The six experimental methods of Tables 2
// and 3 are first-class values:
//
//	Method I    conventional decomposition + area-delay mapping
//	Method II   MINPOWER decomposition     + area-delay mapping
//	Method III  bounded-height MINPOWER    + area-delay mapping
//	Method IV   conventional decomposition + power-delay mapping
//	Method V    MINPOWER decomposition     + power-delay mapping
//	Method VI   bounded-height MINPOWER    + power-delay mapping
package core

import (
	"context"
	"fmt"
	"strings"

	"powermap/internal/bdd"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/mapper"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/opt"
	"powermap/internal/power"
)

// Method is one of the paper's six decomposition×mapping combinations.
type Method int

// The six methods of Tables 2 and 3.
const (
	MethodI Method = iota + 1
	MethodII
	MethodIII
	MethodIV
	MethodV
	MethodVI
)

// String returns the Roman numeral used in the paper.
func (m Method) String() string {
	switch m {
	case MethodI:
		return "I"
	case MethodII:
		return "II"
	case MethodIII:
		return "III"
	case MethodIV:
		return "IV"
	case MethodV:
		return "V"
	case MethodVI:
		return "VI"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Decomposition returns the method's technology-decomposition strategy.
func (m Method) Decomposition() decomp.Strategy {
	switch m {
	case MethodI, MethodIV:
		return decomp.Conventional
	case MethodII, MethodV:
		return decomp.MinPower
	default:
		return decomp.BoundedMinPower
	}
}

// Mapping returns the method's mapping objective.
func (m Method) Mapping() mapper.Objective {
	if m <= MethodIII {
		return mapper.AreaDelay
	}
	return mapper.PowerDelay
}

// Methods lists all six in table order.
func Methods() []Method {
	return []Method{MethodI, MethodII, MethodIII, MethodIV, MethodV, MethodVI}
}

// ParseMethod resolves a Roman-numeral method name, case-insensitively;
// "" selects MethodVI, the default of the CLIs and of pserve.
func ParseMethod(s string) (Method, error) {
	if s == "" {
		return MethodVI, nil
	}
	for _, m := range Methods() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (want I..VI)", s)
}

// Options configures Synthesize.
type Options struct {
	// Method selects decomposition strategy and mapping objective. The
	// zero value selects MethodI (conventional decomposition + ad-map).
	Method Method

	// Style is the CMOS design style (static in the paper's experiments).
	Style huffman.Style
	// Exact uses global-BDD costs during decomposition.
	Exact bool
	// PIProb gives P(pi=1) by name (default 0.5: the paper's independent,
	// uniform primary inputs).
	PIProb map[string]float64
	// Library is the target cell library (default the embedded lib2).
	Library *genlib.Library
	// Relax loosens the mapper's defaulted required times as a fraction of
	// the fastest mapping's delay. Nil selects mapper.DefaultRelax (0.15),
	// giving both ad-map and pd-map the same modest timing slack to spend;
	// Float64(0) demands the fastest mapping.
	Relax *float64
	// Mapper selects the mapper: the structural pattern matcher with
	// fanout division (default), the cut-based NPN Boolean matcher over a
	// structurally hashed AIG, or the structural matcher on the strict tree
	// partition.
	Mapper mapper.Backend
	// LUT, with the cuts backend, maps every k-feasible cut to a generic
	// k-input LUT cell instead of matching the library (2 <= k <= 6). Zero
	// disables LUT mode.
	LUT int
	// Epsilon is the mapper's curve-pruning width.
	Epsilon float64
	// PowerMethod2 selects the Section 3.1 Method 2 power accounting in
	// the mapper (for ablations; Method 1 is the paper's choice).
	PowerMethod2 bool
	// Strash enables structural hashing of the subject graph (an
	// extension; off by default for fidelity to the paper's pipeline).
	Strash bool
	// StrongSimplify enables Espresso-style node simplification in
	// quick-opt (an extension; off by default — see EXPERIMENTS.md).
	StrongSimplify bool
	// PORequired gives mapped-domain (ns) required times at primary
	// outputs; every primary input arrives at 0.
	PORequired map[string]float64
	// CurveAudit is forwarded to the mapper: when non-nil it observes every
	// internal node's pruned power-delay curve as it is installed, on the
	// coordinator goroutine. The verification layer uses it to check curve
	// invariants in-flight.
	CurveAudit func(*network.Node, *mapper.Curve)
	// Obs is the observability scope threaded through every pipeline
	// stage (decomp, mapper, bdd). Nil — the default — disables
	// all instrumentation at near-zero cost.
	Obs *obs.Scope
	// Journal records the run's decision provenance (per-node
	// decomposition events, per-site mapper decisions, per-gate power
	// attribution) as JSONL, threaded through decomp and mapper the same
	// way Obs is. Nil — the default — disables journaling; cmd/pexplain
	// queries and diffs the resulting files.
	Journal *journal.Journal
	// Workers bounds the worker pool used by the parallel pipeline phases
	// (decomposition planning, mapper curve construction). <= 0 means one
	// worker per CPU; 1 reproduces the sequential pipeline exactly. Results
	// are identical for every worker count.
	Workers int
	// BDD tunes the kernel behind the run's probability model and every
	// equivalence check: node limit (an over-wide network then surfaces as
	// a wrapped bdd.ErrNodeLimit, never a panic), GC thresholds, and
	// dynamic variable reordering by sifting. The decomposition's one model
	// holds the source, AND/OR and subject-graph functions under that
	// limit, and the mapped-netlist self-check builds into it too. The zero
	// value keeps the kernel defaults.
	BDD bdd.Config
}

// Float64 returns a pointer to v, for optional fields like Options.Relax.
func Float64(v float64) *float64 { return &v }

// Result is the outcome of a full synthesis run.
type Result struct {
	// Optimized is the technology-independent optimized network.
	Optimized *network.Network
	// Decomp is the decomposition result (subject graph + probabilities).
	Decomp *decomp.Result
	// Netlist is the mapped circuit.
	Netlist *mapper.Netlist
	// Report carries the paper's three reported metrics.
	Report power.Report
	// OptStats reports what quick-opt changed.
	OptStats opt.Stats
	// Options are the options the run used, with Method and Library
	// defaulted. verify.CheckResult proves the run under their BDD budget.
	Options Options
}

// Synthesize runs the full flow on a copy of the input network. The input
// is never modified.
func Synthesize(nw *network.Network, o Options) (*Result, error) {
	return SynthesizeContext(context.Background(), nw, o)
}

// SynthesizeContext is Synthesize with cancellation: the ctx is checked
// between pipeline phases and inside the long per-node loops of each
// phase, so deadlines abort long runs promptly. The input is never
// modified either way.
//
// On failure the scope's flight recorder captures a post-mortem record
// (reason "core.synthesize", with the circuit name and whether the error is
// a BDD node-limit) holding the failing phase's spans, recent logs and the
// last runtime samples — auto-dumped to disk when -flight configured a
// path.
func SynthesizeContext(ctx context.Context, nw *network.Network, o Options) (_ *Result, err error) {
	if o.Method == 0 {
		o.Method = MethodI
	}
	if o.Library == nil {
		o.Library = genlib.Lib2()
	}
	res := &Result{Options: o}
	sc := o.Obs
	defer func() {
		if err != nil {
			sc.Flight().CaptureFailure("core.synthesize", err,
				"circuit", nw.Name, "node_limit", bdd.IsNodeLimit(err))
		}
	}()
	// Carry the scope on the context so context-only layers (the exec
	// worker pool, nested phases) can instrument; spans started below pick
	// up the context's track and labels, so a run launched from a labeled
	// worker task (the eval suite) files its phases under that job.
	ctx = obs.WithScope(ctx, sc)

	work := nw.Duplicate()
	// MaxNodeLiterals keeps optimized nodes small, matching the
	// "relatively simple nodes" the paper attributes to its
	// fast_extract/quick-decomposition front end (Section 4).
	span := sc.StartCtx(ctx, "quick-opt")
	st, err := opt.Optimize(ctx, work, opt.Options{
		MaxNodeLiterals: 6,
		StrongSimplify:  o.StrongSimplify,
	})
	span.SetAttr("literals_before", st.LiteralsBefore).SetAttr("literals_after", st.LiteralsAfter)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("core: optimize: %w", err)
	}
	res.OptStats = st
	sc.Counter("core.opt_literals_removed").Add(int64(st.LiteralsBefore - st.LiteralsAfter))
	res.Optimized = work

	span = sc.StartCtx(ctx, "decompose")
	span.SetAttr("strategy", o.Method.Decomposition().String()).SetAttr("circuit", work.Name)
	d, err := decomp.Decompose(ctx, work, decomp.Options{
		Strategy: o.Method.Decomposition(),
		Style:    o.Style,
		Exact:    o.Exact,
		PIProb:   o.PIProb,
		Strash:   o.Strash,
		Obs:      sc,
		Journal:  o.Journal,
		Workers:  o.Workers,
		BDD:      o.BDD,
	})
	if err != nil {
		// The typed failure lands on the span as an event, so the flight
		// record's span tail names the phase and the error class.
		span.Event("error", "error", err.Error(), "node_limit", bdd.IsNodeLimit(err))
		span.End()
		return nil, fmt.Errorf("core: decompose: %w", err)
	}
	span.SetAttr("subject_nodes", d.Network.Stats().Nodes)
	span.End()
	res.Decomp = d

	span = sc.StartCtx(ctx, "map")
	span.SetAttr("objective", o.Method.Mapping().String()).SetAttr("backend", o.Mapper.String())
	nl, err := mapper.Map(ctx, d.Network, d.Model, mapper.Options{
		Objective:    o.Method.Mapping(),
		Library:      o.Library,
		Backend:      o.Mapper,
		LUT:          o.LUT,
		Epsilon:      o.Epsilon,
		PORequired:   o.PORequired,
		Relax:        o.Relax,
		PowerMethod2: o.PowerMethod2,
		CurveAudit:   o.CurveAudit,
		Obs:          sc,
		Journal:      o.Journal,
		Workers:      o.Workers,
	})
	if err != nil {
		span.Event("error", "error", err.Error(), "node_limit", bdd.IsNodeLimit(err))
		span.End()
		return nil, fmt.Errorf("core: map: %w", err)
	}
	span.SetAttr("gates", nl.Report.Gates)
	span.End()
	span = sc.StartCtx(ctx, "verify-netlist")
	err = nl.Verify(d.Model)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("core: mapped netlist failed verification: %w", err)
	}
	res.Netlist = nl
	res.Report = nl.Report
	sc.Gauge("core.gates").Set(float64(nl.Report.Gates))
	sc.Gauge("core.area").Set(nl.Report.GateArea)
	sc.Gauge("core.delay_ns").Set(nl.Report.Delay)
	sc.Gauge("core.power_uw").Set(nl.Report.PowerUW)
	return res, nil
}
