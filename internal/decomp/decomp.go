// Package decomp implements the paper's power-efficient technology
// decomposition (Section 2): every node of an optimized Boolean network is
// expanded into a tree of 2-input AND/OR gates whose total switching
// activity is minimized, and the result is converted into the NAND2/INV
// subject graph consumed by the technology mapper.
//
// Three strategies are provided, matching the paper's experimental
// methods:
//
//   - Conventional: balanced trees over arrival-ordered leaves (the SIS
//     tech_decomp baseline of Methods I and IV);
//   - MinPower: unrestricted minimum-switching trees (minpower_t_decomp,
//     Methods II and V) — plain Huffman for quasi-linear (domino) weight
//     functions, Modified Huffman otherwise (Section 2.1);
//   - BoundedMinPower: the Section 2.3 driver (bh_minpower_t_decomp,
//     Methods III and VI) — an unrestricted MINPOWER pass followed by
//     slack-driven bounded-height re-decomposition of timing-critical
//     nodes using the (modified) Larmore–Hirschberg construction.
//
// Switching activities driving the tree constructions come either from the
// independence formulas of Section 2.1 (Exact=false) or from exact global
// BDD probabilities (Exact=true), the alternative the paper offers for
// correlated signals.
package decomp

import (
	"context"
	"fmt"
	"math"

	"powermap/internal/bdd"
	"powermap/internal/exec"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/network"
	"powermap/internal/obs"
	netopt "powermap/internal/opt"
	"powermap/internal/prob"
	"powermap/internal/sop"
)

// Strategy selects the decomposition algorithm.
type Strategy int

const (
	// Conventional builds balanced trees (the baseline).
	Conventional Strategy = iota
	// MinPower builds unrestricted minimum-switching-activity trees.
	MinPower
	// BoundedMinPower additionally re-decomposes timing-critical nodes
	// under height bounds derived from unit-delay slack.
	BoundedMinPower
)

func (s Strategy) String() string {
	switch s {
	case Conventional:
		return "conventional"
	case MinPower:
		return "minpower"
	default:
		return "bh-minpower"
	}
}

// Options configures Decompose.
type Options struct {
	Strategy Strategy
	// Style is the CMOS design style whose switching activity is minimized.
	Style huffman.Style
	// Exact prices candidate merges with global-BDD probabilities, which
	// accounts for structural input correlations (Section 1.4 / the BDD
	// alternative to Equation 9). When false, the closed-form independence
	// formulas of Section 2.1 are used.
	Exact bool
	// PIProb gives P(pi=1) by name; missing entries default to 0.5.
	PIProb map[string]float64
	// Strash structurally hashes the subject graph after conversion,
	// merging identical NAND/INV nodes created by independent node
	// expansions. Off by default for fidelity to the paper's pipeline
	// (SIS tech_decomp performs no sharing pass); enabling it shrinks the
	// subject graph but also narrows the gap between decomposition
	// strategies, since the sharing recovers much of what conventional
	// decomposition loses.
	Strash bool
	// Obs receives phase spans and decomposition metrics (tree/merge
	// counts, slack-loop iterations, BDD manager statistics). Nil
	// disables instrumentation.
	Obs *obs.Scope
	// Journal receives one decomp.node provenance event per planned node
	// (construction kind, tree shape, Huffman merge trail with power-cost
	// inputs) plus a decomp.summary rollup. Nil disables journaling.
	Journal *journal.Journal
	// Workers bounds the pool used to plan node trees in parallel. <= 0
	// means one worker per CPU; 1 plans sequentially. Exact mode always
	// plans with one worker (the shared BDD manager is not safe for
	// concurrent use). Plans are identical for every worker count.
	Workers int
	// BDD tunes the kernel behind the run's probability model: node limit
	// (an over-wide network then surfaces as a wrapped bdd.ErrNodeLimit,
	// never a panic), GC thresholds, and dynamic variable reordering by
	// sifting. The limit bounds the one manager that holds the source, the
	// AND/OR and the subject-graph functions. The zero value keeps the
	// defaults.
	BDD bdd.Config
}

// flushBDDStats folds the BDD manager's work counters into the metrics
// registry. Call it once, after the decomposition's last use of it.
func flushBDDStats(sc *obs.Scope, m *bdd.Manager) {
	if sc == nil || m == nil {
		return
	}
	st := m.Stats()
	sc.Counter("bdd.nodes_allocated").Add(st.Allocs)
	sc.Counter("bdd.unique_hits").Add(st.UniqueHits)
	sc.Counter("bdd.cache_hits").Add(st.CacheHits)
	sc.Counter("bdd.cache_misses").Add(st.CacheMisses)
	sc.Counter("bdd.gc_runs").Add(st.GCRuns)
	sc.Counter("bdd.nodes_freed").Add(st.NodesFreed)
	sc.Counter("bdd.reorder_runs").Add(st.ReorderRuns)
	sc.Counter("bdd.reorder_swaps").Add(st.ReorderSwaps)
	sc.Counter("bdd.cache_resets").Add(st.CacheResets)
	sc.Gauge("bdd.nodes_live_max").SetMax(float64(st.PeakLive) + 2)
	sc.Gauge("bdd.cache_entries_max").SetMax(float64(st.CacheEntries))
}

// Result is the outcome of a decomposition.
type Result struct {
	// Network is the NAND2/INV subject graph (plus PIs).
	Network *network.Network
	// Model holds exact probabilities/activities for every subject node.
	// It is the model the run priced the source network with, extended
	// over the AND/OR level and then the subject graph.
	Model *prob.Model
	// TotalActivity is the decomposition objective: the sum of switching
	// activities over the internal nodes of the AND/OR level, before the
	// NAND/INV conversion.
	TotalActivity float64
	// Depth is the unit-delay depth of the subject graph.
	Depth float64
	// Redecompositions counts bounded-height node rebuilds performed.
	Redecompositions int
}

// literal is one leaf of a node's AND-OR tree: a fanin in some phase.
type literal struct {
	node *network.Node
	neg  bool
}

// shape is an algebra-independent binary tree over leaf indices.
type shape struct {
	leaf int // leaf index, or -1
	l, r *shape
}

func shapeOf[S any](t *huffman.Tree[S]) *shape {
	if t.IsLeaf() {
		return &shape{leaf: t.Leaf}
	}
	return &shape{leaf: -1, l: shapeOf(t.Left), r: shapeOf(t.Right)}
}

func (s *shape) height() int {
	if s == nil || s.leaf >= 0 {
		return 0
	}
	hl, hr := s.l.height(), s.r.height()
	if hl > hr {
		return hl + 1
	}
	return hr + 1
}

// leafDepths fills depth[i] for each leaf index.
func (s *shape) leafDepths(depth []int, d int) {
	if s.leaf >= 0 {
		depth[s.leaf] = d
		return
	}
	s.l.leafDepths(depth, d+1)
	s.r.leafDepths(depth, d+1)
}

// plan is the decomposition plan of one original node: its cubes, and the
// chosen tree shapes (andShapes[i] == nil when cube i has a single literal,
// orShape == nil when there is a single cube).
type plan struct {
	n         *network.Node
	cubes     [][]literal
	andShapes []*shape
	orShape   *shape
	minHeight int  // smallest achievable structure height
	stuck     bool // bounded re-decomposition cannot tighten further
	rebuilt   bool // bounded re-decomposition replaced the tree
	// rebuild re-decomposes the node with structure height ≤ limit,
	// reporting false when infeasible. Installed by the builder.
	rebuild func(limit int) (bool, error)
}

// structureHeight is the AND-OR depth of the planned decomposition.
func (p *plan) structureHeight() int {
	if p.orShape == nil {
		if len(p.andShapes) == 0 || p.andShapes[0] == nil {
			return 0
		}
		return p.andShapes[0].height()
	}
	orDepth := make([]int, len(p.cubes))
	p.orShape.leafDepths(orDepth, 0)
	h := 0
	for i := range p.cubes {
		d := orDepth[i]
		if p.andShapes[i] != nil {
			d += p.andShapes[i].height()
		}
		if d > h {
			h = d
		}
	}
	return h
}

// leafArrivalDepths returns, for every literal, the total depth of its leaf
// within the node structure (OR depth + AND depth).
func (p *plan) leafArrivalDepths() map[*network.Node]int {
	worst := make(map[*network.Node]int)
	orDepth := make([]int, len(p.cubes))
	if p.orShape != nil {
		p.orShape.leafDepths(orDepth, 0)
	}
	for i, cube := range p.cubes {
		andDepth := make([]int, len(cube))
		if p.andShapes[i] != nil {
			p.andShapes[i].leafDepths(andDepth, 0)
		}
		for j, lit := range cube {
			d := orDepth[i] + andDepth[j]
			if cur, ok := worst[lit.node]; !ok || d > cur {
				worst[lit.node] = d
			}
		}
	}
	return worst
}

// Decompose expands every internal node of nw into minimum-switching
// NAND2/INV trees per the configured strategy. The input network is not
// modified. The ctx cancels the run between phases and between nodes; the
// Workers option fans the per-node tree planning out across a pool with
// results identical to a sequential run.
func Decompose(ctx context.Context, nw *network.Network, opt Options) (*Result, error) {
	sc := opt.Obs
	workers := exec.Workers(opt.Workers)
	if opt.Exact {
		// Exact mode prices merges through the model's shared BDD manager,
		// which is not safe for concurrent use.
		workers = 1
	}
	cp := nw.Duplicate()
	cp.Sweep()
	if err := cp.Check(); err != nil {
		return nil, fmt.Errorf("decomp: input network: %w", err)
	}
	span := sc.StartCtx(ctx, "decomp.probabilities")
	model, err := prob.ComputeWith(ctx, cp, opt.PIProb, opt.Style, opt.BDD)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("decomp: %w", err)
	}

	// Phase 1: plan a tree for every internal node. Each plan is a pure
	// function of the node's own cover and its fanins' probabilities, so
	// nodes fan out across the pool; index-ordered collection keeps the
	// plan list in topo order regardless of scheduling.
	span = sc.StartCtx(ctx, "decomp.plan-trees")
	var nodes []*network.Node
	for _, n := range cp.TopoOrder() {
		if n.Kind == network.Internal {
			nodes = append(nodes, n)
		}
	}
	span.SetAttr("nodes", len(nodes)).SetAttr("workers", workers)
	plans, err := exec.Map(exec.WithLabel(ctx, "decomp.plan"), workers, len(nodes), func(ctx context.Context, i int) (*plan, error) {
		n := nodes[i]
		n.Func.Minimize()
		if n.Func.IsZero() || n.Func.IsOne() {
			return nil, fmt.Errorf("decomp: node %s is constant; run opt.Sweep/opt.Optimize first", n.Name)
		}
		return makePlan(cp, model, n, opt)
	})
	span.End()
	if err != nil {
		return nil, err
	}
	sc.Counter("decomp.nodes_planned").Add(int64(len(plans)))

	redecomps := 0
	if opt.Strategy == BoundedMinPower {
		// The performance target: the depth a conventional (balanced)
		// decomposition would achieve — i.e. bound the height increase the
		// MINPOWER pass introduced (Section 2.2's problem statement).
		span = sc.StartCtx(ctx, "decomp.slack-targets")
		req, err := conventionalArrivals(ctx, cp, model, opt, workers)
		span.End()
		if err != nil {
			return nil, err
		}
		span = sc.StartCtx(ctx, "decomp.bounded-redecomp")
		redecomps, err = boundedPass(ctx, cp, plans, req, sc)
		span.SetAttr("redecompositions", redecomps)
		span.End()
		if err != nil {
			return nil, err
		}
	}

	// Tree shapes are final here (the bounded pass no longer rewrites
	// them), so the provenance events record what will be materialized.
	emitPlans(opt.Journal, plans, opt)

	// Phase 2: materialize the plans as AND2/OR2/INV nodes.
	span = sc.StartCtx(ctx, "decomp.materialize")
	inv := newInvCache(cp)
	for _, p := range plans {
		if err := ctx.Err(); err != nil {
			span.End()
			return nil, fmt.Errorf("decomp: %w", err)
		}
		if err := materialize(cp, inv, p); err != nil {
			span.End()
			return nil, err
		}
	}
	span.End()
	// One model serves the whole run. Decomposition never changes the
	// function of a node the model already holds: materialize keeps each
	// original node as the root of its tree, toNandInv rewrites AND2 as
	// INV(NAND2) and OR2 as NAND2(INV, INV) on the same node, and the
	// buffer/inverter sweep, Strash and Sweep only rewire or delete nodes.
	// So each Extend builds only the nodes that are new, and every held
	// global BDD and annotation stays exact.
	//
	// The decomposition objective (total internal switching activity,
	// Section 2) is measured on the AND/OR tree level: after the NAND/INV
	// conversion every AND node contributes a complementary NAND+INV pair
	// whose domino activities sum to exactly 1, which would make the
	// metric degenerate.
	span = sc.StartCtx(ctx, "decomp.activity")
	err = model.Extend(ctx, cp)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("decomp: AND/OR activities: %w", err)
	}
	totalActivity := 0.0
	for _, n := range cp.TopoOrder() {
		if n.Kind == network.Internal {
			totalActivity += n.Activity
		}
	}
	// Phase 3: convert to the NAND2/INV basis and clean up.
	span = sc.StartCtx(ctx, "decomp.nand-convert")
	if err := toNandInv(cp, inv); err != nil {
		span.End()
		return nil, err
	}
	sweepBuffersAndInvPairs(cp)
	if opt.Strash {
		// Extension: merge identical NAND/INV nodes created by independent
		// node expansions, shrinking the subject graph the mapper covers.
		netopt.Strash(cp)
		sweepBuffersAndInvPairs(cp)
	}
	cp.Sweep()
	span.End()
	if err := cp.Check(); err != nil {
		return nil, fmt.Errorf("decomp: produced invalid network: %w", err)
	}

	span = sc.StartCtx(ctx, "decomp.final-probabilities")
	err = model.Extend(ctx, cp)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("decomp: final probabilities: %w", err)
	}
	res := &Result{Network: cp, Model: model, Redecompositions: redecomps, TotalActivity: totalActivity}
	res.Depth = unitDepth(ctx, cp, sc)
	sc.Gauge("decomp.total_activity").Set(totalActivity)
	sc.Gauge("decomp.subject_nodes").Set(float64(cp.Stats().Nodes))
	sc.Gauge("decomp.depth").Set(res.Depth)
	opt.Journal.DecompSummary(journal.DecompSummary{
		Nodes:            len(plans),
		TotalActivity:    totalActivity,
		SubjectNodes:     cp.Stats().Nodes,
		Depth:            res.Depth,
		Redecompositions: redecomps,
	})
	flushBDDStats(sc, model.Manager())
	return res, nil
}

// unitDepth computes the unit-delay arrival time of every node reachable
// from the outputs, every primary input arriving at 0, and returns the
// latest output arrival: the network's depth. The paper's Section 2.3
// argues for the unit-delay model before mapping, since the mapped
// netlist's structure differs substantially from the subject graph; the
// mapper applies the library delay model (Equation 14).
func unitDepth(ctx context.Context, nw *network.Network, sc *obs.Scope) float64 {
	span := sc.StartCtx(ctx, "timing.annotate")
	defer span.End()
	order := nw.TopoOrder()
	span.SetAttr("nodes", len(order))
	sc.Counter("timing.annotate_runs").Inc()
	sc.Counter("timing.nodes_annotated").Add(int64(len(order)))
	arrival := make(map[*network.Node]float64, len(order))
	for _, n := range order {
		if n.IsSource() {
			continue
		}
		worst := math.Inf(-1)
		for _, f := range n.Fanin {
			worst = max(worst, arrival[f])
		}
		arrival[n] = worst + 1
	}
	if len(nw.Outputs) == 0 {
		return 0
	}
	depth := math.Inf(-1)
	for _, o := range nw.Outputs {
		depth = max(depth, arrival[o.Driver])
	}
	return depth
}

// makePlan chooses tree shapes for one node under the configured strategy
// (bounded re-decomposition happens later, against the whole-network view).
func makePlan(cp *network.Network, model *prob.Model, n *network.Node, opt Options) (*plan, error) {
	p := &plan{n: n}
	for _, c := range n.Func.Cubes {
		var lits []literal
		for v, l := range c {
			switch l {
			case sop.Pos:
				lits = append(lits, literal{node: n.Fanin[v]})
			case sop.Neg:
				lits = append(lits, literal{node: n.Fanin[v], neg: true})
			}
		}
		if len(lits) == 0 {
			return nil, fmt.Errorf("decomp: node %s has a tautology cube", n.Name)
		}
		p.cubes = append(p.cubes, lits)
	}
	if opt.Exact {
		bld := newExactBuilder(model, opt)
		if err := bld.plan(p); err != nil {
			return nil, err
		}
	} else {
		bld := newSignalBuilder(opt)
		if err := bld.plan(p); err != nil {
			return nil, err
		}
	}
	p.minHeight = minStructureHeight(p)
	return p, nil
}

// minStructureHeight is the smallest AND-OR depth any decomposition of the
// node can achieve: balanced AND trees under a balanced OR tree.
func minStructureHeight(p *plan) int {
	maxAnd := 0
	for _, cube := range p.cubes {
		if h := ceilLog2(len(cube)); h > maxAnd {
			maxAnd = h
		}
	}
	return maxAnd + ceilLog2(len(p.cubes))
}

func ceilLog2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
