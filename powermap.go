// Package powermap is a from-scratch reproduction of "Technology
// Decomposition and Mapping Targeting Low Power Dissipation" (Tsui, Pedram,
// Despain; DAC 1993): power-aware technology decomposition and technology
// mapping for combinational CMOS logic, together with every substrate the
// paper depends on — Boolean networks, BLIF I/O, ROBDDs with exact signal
// probabilities, Huffman/package-merge tree constructions, a genlib cell
// library with the SIS pin-dependent delay model, and a curve-based tree
// mapper.
//
// This root package is the stable facade: it re-exports the flow entry
// points and the types a downstream user needs. The implementation lives
// in internal/ packages (one per subsystem; see DESIGN.md).
//
// Quick start:
//
//	nw, _ := powermap.ParseBLIF(strings.NewReader(myBlif))
//	res, _ := powermap.Synthesize(nw, powermap.Options{
//		Method: powermap.MethodVI, // bounded-height MINPOWER + pd-map
//		Style:  powermap.Static,
//	})
//	fmt.Printf("area %.0f, delay %.2f ns, power %.2f uW\n",
//		res.Report.GateArea, res.Report.Delay, res.Report.PowerUW)
package powermap

import (
	"context"
	"io"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/decomp"
	"powermap/internal/eval"
	"powermap/internal/genlib"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/mapper"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/power"
	"powermap/internal/prob"
	"powermap/internal/sim"
	"powermap/internal/verify"
	"powermap/internal/verify/equiv"
)

// Core flow types.
type (
	// Options configures a synthesis run; see core.Options.
	Options = core.Options
	// Result is a completed synthesis run.
	Result = core.Result
	// Method is one of the paper's six decomposition×mapping combinations.
	Method = core.Method
	// Network is a multi-level Boolean network.
	Network = network.Network
	// Node is one vertex of a Network.
	Node = network.Node
	// Netlist is a mapped gate-level circuit.
	Netlist = mapper.Netlist
	// Report carries gate area, delay (ns) and average power (µW).
	Report = power.Report
	// Library is a standard-cell library in genlib form.
	Library = genlib.Library
	// Style is the CMOS design style whose activity is minimized.
	Style = huffman.Style
	// Strategy selects the technology-decomposition algorithm.
	Strategy = decomp.Strategy
	// Objective selects the mapping cost (area-delay or power-delay).
	Objective = mapper.Objective
	// MapperBackend selects the mapper: structural pattern matching with
	// fanout division, cut-based NPN Boolean matching, or structural
	// matching on the strict tree partition.
	MapperBackend = mapper.Backend
	// Benchmark is one entry of the built-in benchmark suite.
	Benchmark = circuits.Benchmark
)

// The paper's six experimental methods (Tables 2 and 3).
const (
	MethodI   = core.MethodI
	MethodII  = core.MethodII
	MethodIII = core.MethodIII
	MethodIV  = core.MethodIV
	MethodV   = core.MethodV
	MethodVI  = core.MethodVI
)

// Design styles (Section 1.2).
const (
	Static  = huffman.Static
	DominoP = huffman.DominoP
	DominoN = huffman.DominoN
)

// Decomposition strategies (Section 2).
const (
	Conventional    = decomp.Conventional
	MinPower        = decomp.MinPower
	BoundedMinPower = decomp.BoundedMinPower
)

// Mapping objectives (Section 3).
const (
	AreaDelay  = mapper.AreaDelay
	PowerDelay = mapper.PowerDelay
)

// Mapper backends: the paper's structural pattern matcher with fanout
// division (the default), the cut-based NPN Boolean matcher over a
// structurally hashed AIG, and the structural matcher on the DAGON-style
// tree partition (an ablation). Select with Options.Mapper; Options.LUT
// switches the cuts backend to a generic k-LUT workload.
const (
	BackendStructural = mapper.BackendStructural
	BackendCuts       = mapper.BackendCuts
	BackendTree       = mapper.BackendTree
)

// Observability re-exports (see internal/obs): set Options.Obs to a
// NewScope to collect phase spans and pipeline metrics from a run.
type (
	// Scope bundles a tracer and metrics registry; nil disables both.
	Scope = obs.Scope
	// ObsConfig configures a Scope (span ring size, run ID); a Scope's
	// SetSpanLogger installs a slog.Logger for phase spans.
	ObsConfig = obs.Config
	// Snapshot is an exportable capture of a Scope's spans and metrics.
	Snapshot = obs.Snapshot
)

// NewScope returns an enabled observability scope.
func NewScope(cfg ObsConfig) *Scope { return obs.New(cfg) }

// Decision-provenance re-exports (see internal/journal and cmd/pexplain):
// set Options.Journal to a journal created with CreateJournal or NewJournal
// to record every decomposition, mapping and power-attribution decision of
// a run as JSONL.
type (
	// Journal is a run's decision-provenance writer; nil disables it.
	Journal = journal.Journal
	// JournalHeader is the first record of every journal file.
	JournalHeader = journal.Header
	// JournalRun is a fully parsed journal file.
	JournalRun = journal.Run
)

// NewJournal starts a journal on an arbitrary writer; write errors are
// deferred to Journal.Close.
func NewJournal(w io.Writer, h JournalHeader) *Journal { return journal.New(w, h) }

// CreateJournal starts a journal file at path (created or truncated).
func CreateJournal(path string, h JournalHeader) (*Journal, error) { return journal.Create(path, h) }

// ReadJournal parses a journal file written by a previous run.
func ReadJournal(path string) (*JournalRun, error) { return journal.ReadRunFile(path) }

// NewRunID returns a fresh random run identifier for journal headers and
// stats snapshots.
func NewRunID() string { return journal.NewRunID() }

// Synthesize runs the full flow — quick-opt, power-efficient technology
// decomposition, power-efficient technology mapping — on a copy of the
// input network. Set Options.Workers to fan the per-node phases out across
// a worker pool; results are identical for every worker count.
func Synthesize(nw *Network, o Options) (*Result, error) { return core.Synthesize(nw, o) }

// SynthesizeContext is Synthesize with cancellation: deadlines and
// cancellation on ctx abort the run between pipeline phases and between
// nodes inside them.
func SynthesizeContext(ctx context.Context, nw *Network, o Options) (*Result, error) {
	return core.SynthesizeContext(ctx, nw, o)
}

// Float64 returns a pointer to v, for optional fields like Options.Relax.
func Float64(v float64) *float64 { return core.Float64(v) }

// Verify proves a synthesis result against its source network with the
// formal-verification oracle (see VerifyContext), under the BDD budget the
// run used (res.Options.BDD).
func Verify(src *Network, res *Result) error {
	return verify.CheckResult(context.Background(), src, res)
}

// VerifyContext proves a synthesis run end to end with an oracle
// independent of the pipeline: src ≡ optimized ≡ decomposed ≡ mapped
// (global ROBDDs rebuilt from scratch) plus report self-consistency.
// Equivalence failures come back as a *MismatchError carrying a
// counterexample input. It is Verify with cancellation.
func VerifyContext(ctx context.Context, src *Network, res *Result) error {
	return verify.CheckResult(ctx, src, res)
}

// Formal-verification re-exports (see internal/verify and cmd/pcheck).
type (
	// MismatchError is an equivalence disproof with a counterexample cube.
	MismatchError = equiv.MismatchError
	// RandConfig parameterizes RandomNetwork.
	RandConfig = verify.RandConfig
)

// ProveEquivalent checks two networks over the same primary inputs for
// combinational equivalence (exact, via shared BDDs), returning a
// *MismatchError with a counterexample cube on disproof.
func ProveEquivalent(ctx context.Context, ref, impl *Network) error {
	return equiv.Equivalent(ctx, ref, impl, bdd.Config{})
}

// RandomNetwork builds a seeded random multi-level network for
// property-based testing; equal configs produce identical networks.
func RandomNetwork(name string, cfg RandConfig) *Network {
	return verify.RandomNetwork(name, cfg)
}

// Methods lists the six methods in table order.
func Methods() []Method { return core.Methods() }

// ParseBLIF reads a BLIF netlist into a Network (latches are cut into
// pseudo-PI/PO pairs).
func ParseBLIF(r io.Reader) (*Network, error) { return blif.Parse(r) }

// ParseBLIFString is ParseBLIF over a string.
func ParseBLIFString(s string) (*Network, error) { return blif.ParseString(s) }

// WriteBLIF serializes a Network as BLIF.
func WriteBLIF(w io.Writer, nw *Network) error { return blif.Write(w, nw) }

// Lib2 returns the embedded lib2-style standard-cell library: parsed
// once, shared, read-only.
func Lib2() *Library { return genlib.Lib2() }

// ParseGenlib reads a genlib library description.
func ParseGenlib(r io.Reader) (*Library, error) { return genlib.Parse(r) }

// Benchmarks returns the 17-circuit suite of the paper's Tables 2 and 3.
func Benchmarks() []Benchmark { return circuits.Suite() }

// BenchmarkByName looks up one benchmark.
func BenchmarkByName(name string) (Benchmark, error) { return circuits.ByName(name) }

// Figure1 returns the worked example of the paper's Figure 1: a 4-input
// AND with input probabilities {0.3, 0.4, 0.7, 0.5}.
func Figure1() (*Network, map[string]float64) { return circuits.Figure1() }

// EstimateActivities annotates every node of the network with its exact
// zero-delay signal probability and switching activity (Equations 2–3) and
// returns the probability model.
func EstimateActivities(nw *Network, piProb map[string]float64, style Style) (*prob.Model, error) {
	return prob.Compute(nw, piProb, style)
}

// Sampling-engine re-exports (see internal/sim): the bit-parallel
// Monte-Carlo activity estimator.
type (
	// SamplingOptions configures SampleActivities (budget, seed, workers,
	// confidence level, sequential CI target).
	SamplingOptions = sim.BitwiseOptions
	// SamplingResult is a completed sampling run: per-node estimates with
	// confidence intervals plus run-level statistics.
	SamplingResult = sim.BitwiseResult
	// ActivityEstimate is one node's sampled estimate.
	ActivityEstimate = sim.Estimate
)

// SampleActivities estimates signal probabilities and switching activities
// with the bit-parallel Monte-Carlo engine: 64 sample lanes per machine
// word over a precompiled evaluation plan, with normal-approximation
// confidence intervals. Counts are bit-identical for every worker count.
func SampleActivities(ctx context.Context, nw *Network, piProb map[string]float64, o SamplingOptions) (*SamplingResult, error) {
	return sim.ActivitiesBitwise(ctx, nw, piProb, o)
}

// Experiment harness re-exports (see cmd/tables for the CLI).
type (
	// Table1Row is one row of the paper's Table 1.
	Table1Row = eval.Table1Row
	// CircuitRow is one benchmark's results across methods.
	CircuitRow = eval.CircuitRow
	// Summary aggregates the Section 4 comparison ratios.
	Summary = eval.Summary
)

// Table1 reproduces the Table 1 simulation.
func Table1(patterns int, seed int64) []Table1Row { return eval.Table1(patterns, seed) }

// RunSuite synthesizes benchmarks with the given methods under common
// per-circuit timing constraints (the Tables 2/3 protocol). Set
// base.Workers to fan the (circuit, method) runs out across a pool.
func RunSuite(methods []Method, base Options, names []string) ([]CircuitRow, error) {
	return eval.RunSuite(context.Background(), methods, base, names)
}

// Summarize computes the Section 4 summary ratios from six-method rows.
func Summarize(rows []CircuitRow) Summary { return eval.Summarize(rows) }
