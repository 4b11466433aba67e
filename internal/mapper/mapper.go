package mapper

import (
	"context"
	"fmt"
	"math"

	"powermap/internal/exec"
	"powermap/internal/genlib"
	"powermap/internal/journal"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/power"
	"powermap/internal/prob"
)

// Objective selects the curve cost: the paper's ad-map (area under delay
// constraints, the Chaudhary–Pedram baseline of Methods I–III) or pd-map
// (average power under delay constraints, Methods IV–VI).
type Objective int

const (
	// AreaDelay minimizes total cell area subject to required times.
	AreaDelay Objective = iota
	// PowerDelay minimizes average power subject to required times,
	// accounted with Method 1 of Section 3.1.
	PowerDelay
)

func (o Objective) String() string {
	if o == AreaDelay {
		return "ad-map"
	}
	return "pd-map"
}

// Backend selects the mapper: how candidate matches are enumerated and
// how multi-fanout nodes are covered. Every backend feeds the same
// power-delay curve machinery, so Lemma 3.1 invariants, CurveAudit and the
// selection passes are backend-independent.
type Backend int

const (
	// BackendStructural is the paper's pattern matcher on the NAND2/INV
	// subject network, covering the DAG by fanout division (Section 3.3).
	BackendStructural Backend = iota
	// BackendCuts matches Boolean functions: it structurally hashes the
	// subject network into an AIG, enumerates k-feasible cuts per node,
	// and matches each cut's NPN-canonicalized truth table against
	// precomputed library cell signatures (or generic LUT cells).
	BackendCuts
	// BackendTree is the structural matcher restricted to the DAGON-style
	// tree partition: no match hides a multi-fanout node inside its cover,
	// and no cost is divided by fanout. It is kept as an ablation.
	BackendTree
)

// String returns the backend's -mapper spelling, or Backend(n) for a
// value that names no backend.
func (b Backend) String() string {
	switch b {
	case BackendStructural:
		return "dag"
	case BackendCuts:
		return "cuts"
	case BackendTree:
		return "tree"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend resolves a -mapper name and a generic-LUT arity into a
// backend: "dag" and "tree" are the structural matcher with fanout
// division and with strict tree partitioning, "cuts" the Boolean matcher,
// and "" selects dag, or cuts when lut is set. lut is 0 (library
// matching) or an arity in 2..6, which requires the cuts backend.
func ParseBackend(name string, lut int) (Backend, error) {
	if lut != 0 && (lut < 2 || lut > maxCutInputs) {
		return 0, fmt.Errorf("lut arity %d out of range 2..%d", lut, maxCutInputs)
	}
	switch name {
	case "":
		if lut > 0 {
			return BackendCuts, nil
		}
		return BackendStructural, nil
	case "tree", "dag":
		if lut > 0 {
			return 0, fmt.Errorf("lut requires the cuts mapper")
		}
		if name == "tree" {
			return BackendTree, nil
		}
		return BackendStructural, nil
	case "cuts":
		return BackendCuts, nil
	}
	return 0, fmt.Errorf("unknown mapper %q (want tree, dag or cuts)", name)
}

// Options configures Map.
type Options struct {
	Objective Objective
	Library   *genlib.Library
	// Backend selects the mapper: the structural pattern matcher with
	// fanout division (default), the cut-based NPN Boolean matcher over a
	// structurally hashed AIG, or the structural matcher on the tree
	// partition.
	Backend Backend
	// LUT, with BackendCuts, replaces library matching by a generic-LUT
	// workload: every k-feasible cut maps to a synthetic k-input LUT cell
	// (2 <= k <= 6). Zero disables LUT mode.
	LUT int
	// Epsilon is the curve ε-pruning width in ns (Section 3.1). Zero means
	// the default 0.05 ns; a negative value disables ε-pruning, so a curve
	// keeps every non-inferior point up to the 48-point cap. NaN and ±Inf
	// are rejected.
	Epsilon float64
	// PORequired gives required times at primary outputs. Outputs not
	// listed get their minimum achievable arrival multiplied by (1+Relax).
	PORequired map[string]float64
	// Relax loosens defaulted required times as a slack fraction of the
	// fastest mapping. Nil selects DefaultRelax; a pointer to 0 demands the
	// fastest mapping. NaN, infinite and negative values are rejected.
	Relax *float64
	// PowerMethod2 switches the dynamic-power accounting of Section 3.1
	// from Method 1 (each input's output charge is priced at its mapped
	// parent with the exact pin capacitance — the paper's choice) to
	// Method 2 (each node prices its own output charge with the default
	// load, suffering the unknown-load problem). Provided for the
	// Method 1 vs Method 2 ablation.
	PowerMethod2 bool
	// CurveAudit, when non-nil, is invoked with every internal node's
	// pruned power-delay curve as it is installed. Calls happen on the
	// coordinator goroutine (never inside worker tasks), so the hook needs
	// no synchronization of its own; it must not retain or mutate the
	// curve. Used by the verification layer to check curve invariants
	// (strictly sorted arrivals, no dominated points) in-flight.
	CurveAudit func(*network.Node, *Curve)
	// Obs receives phase spans and mapping metrics (curve points
	// generated/pruned, selection passes, node visits). Nil disables
	// instrumentation.
	Obs *obs.Scope
	// Journal receives one map.site provenance event per mapped gate
	// (matches considered, curve candidates, chosen point and why), the
	// per-gate power attribution rows, and the report rollup. Nil
	// disables journaling.
	Journal *journal.Journal
	// Workers bounds the pool used by the curve-construction phase. <= 0
	// means one worker per CPU; 1 covers nodes sequentially. Curves — and
	// therefore the mapped netlist — are identical for every worker count.
	Workers int
}

// DefaultRelax is the slack fraction applied to defaulted required times
// when Options.Relax is nil: 15% over the fastest mapping, spendable on
// area/power recovery.
const DefaultRelax = 0.15

// areaTiebreak adds a small area-proportional term (µW per area unit) to
// pd-map's power cost so it does not spend unbounded area on negligible
// power gains. It sets where the flow sits on the power/area trade-off
// curve: 0.05 lands near the paper's −22% power / +12% area operating
// point.
const areaTiebreak = 0.05

type selection struct {
	point    Point
	required float64
	index    int  // index of point on the node's curve
	fallback bool // required time infeasible; fastest point taken instead
}

// stateObs caches the mapper's metric handles so hot loops never touch
// the registry map. With observability disabled every handle is nil and
// each call collapses to a nil check.
type stateObs struct {
	pointsGenerated *obs.Counter
	pointsKept      *obs.Counter
	pointsPruned    *obs.Counter
	curveSize       *obs.Histogram
	matchesPerNode  *obs.Histogram
	nodesCovered    *obs.Counter
	selectPasses    *obs.Counter
	nodeVisits      *obs.Counter
	loadRecalcs     *obs.Counter
	sitesSelected   *obs.Counter
}

func newStateObs(sc *obs.Scope) stateObs {
	return stateObs{
		pointsGenerated: sc.Counter("mapper.curve_points_generated"),
		pointsKept:      sc.Counter("mapper.curve_points_kept"),
		pointsPruned:    sc.Counter("mapper.curve_points_pruned"),
		curveSize:       sc.Histogram("mapper.curve_points_per_node"),
		matchesPerNode:  sc.Histogram("mapper.matches_per_node"),
		nodesCovered:    sc.Counter("mapper.nodes_covered"),
		selectPasses:    sc.Counter("mapper.select_passes"),
		nodeVisits:      sc.Counter("mapper.node_visits"),
		loadRecalcs:     sc.Counter("mapper.load_recalcs"),
		sitesSelected:   sc.Counter("mapper.sites_selected"),
	}
}

type state struct {
	opt     Options
	lib     *genlib.Library
	env     power.Environment
	matcher matchSource
	sub     *network.Network
	model   *prob.Model
	curves  map[*network.Node]*Curve
	chosen  map[*network.Node]*selection
	loads   map[*network.Node]float64
	visits  map[*network.Node]int
	poLoad  float64
	cdef    float64
	relax   float64
	workers int
	obs     stateObs
}

// Map covers the NAND2/INV subject network with library gates. The model
// must have been computed on (or cover) the subject network; it supplies
// the mapping-independent switching activities E_n of Section 3.1. The
// ctx cancels the run between nodes; the Workers option fans the curve
// construction out across a pool with curves identical to a sequential
// run.
func Map(ctx context.Context, sub *network.Network, model *prob.Model, opt Options) (*Netlist, error) {
	s, err := newState(ctx, sub, model, opt)
	if err != nil {
		return nil, err
	}
	span := opt.Obs.StartCtx(ctx, "mapper.curves")
	span.SetAttr("workers", s.workers).SetAttr("backend", opt.Backend.String())
	err = s.postorder(ctx)
	span.SetAttr("nodes", len(s.curves))
	span.End()
	if err != nil {
		return nil, err
	}
	span = opt.Obs.StartCtx(ctx, "mapper.select")
	err = s.preorder(ctx)
	span.End()
	if err != nil {
		return nil, err
	}
	span = opt.Obs.StartCtx(ctx, "mapper.extract")
	defer span.End()
	return s.extract()
}

// newState validates opt, resolves its defaults and builds the match
// source, timing the cut backend's enumeration as mapper.cuts.
func newState(ctx context.Context, sub *network.Network, model *prob.Model, opt Options) (*state, error) {
	if opt.Library == nil {
		return nil, fmt.Errorf("mapper: no library given")
	}
	switch opt.Backend {
	case BackendStructural, BackendCuts, BackendTree:
	default:
		return nil, fmt.Errorf("mapper: unknown backend %v (want dag, tree or cuts)", opt.Backend)
	}
	if math.IsNaN(opt.Epsilon) || math.IsInf(opt.Epsilon, 0) {
		return nil, fmt.Errorf("mapper: epsilon %v is not a finite width", opt.Epsilon)
	}
	if r := opt.Relax; r != nil && (math.IsNaN(*r) || math.IsInf(*r, 0) || *r < 0) {
		return nil, fmt.Errorf("mapper: relax %v is not a finite non-negative fraction", *r)
	}
	if opt.Epsilon == 0 {
		opt.Epsilon = 0.05
	} else if opt.Epsilon < 0 {
		opt.Epsilon = 0
	}
	if opt.LUT != 0 {
		if opt.Backend != BackendCuts {
			return nil, fmt.Errorf("mapper: LUT mode requires the cuts backend")
		}
		if opt.LUT < 2 || opt.LUT > maxCutInputs {
			return nil, fmt.Errorf("mapper: LUT arity %d out of range 2..%d", opt.LUT, maxCutInputs)
		}
	}
	s := &state{
		opt:     opt,
		lib:     opt.Library,
		env:     power.Default(),
		matcher: newMatcher(opt.Library, opt.Backend == BackendTree),
		sub:     sub,
		model:   model,
		curves:  make(map[*network.Node]*Curve),
		chosen:  make(map[*network.Node]*selection),
		loads:   make(map[*network.Node]float64),
		visits:  make(map[*network.Node]int),
		cdef:    opt.Library.DefaultLoad(),
		relax:   DefaultRelax,
		workers: exec.Workers(opt.Workers),
		obs:     newStateObs(opt.Obs),
	}
	if opt.Relax != nil {
		s.relax = *opt.Relax
	}
	s.poLoad = 2 * s.cdef
	if opt.Backend == BackendCuts {
		span := opt.Obs.StartCtx(ctx, "mapper.cuts")
		cm, err := newCutMatcher(ctx, sub, opt)
		span.End()
		if err != nil {
			return nil, err
		}
		s.matcher = cm
	}
	return s, nil
}

// postorder computes the power-delay (or area-delay) curve of every node
// (Subsection 3.2.1). With more than one worker the nodes of each
// dependency level are covered concurrently; a curve only ever reads
// curves of strictly earlier levels, so the results match the sequential
// walk exactly.
func (s *state) postorder(ctx context.Context) error {
	var internal []*network.Node
	for _, n := range s.sub.TopoOrder() {
		if n.IsSource() {
			// Every primary input arrives at 0.
			s.curves[n] = &Curve{Points: []Point{{}}}
			continue
		}
		internal = append(internal, n)
	}
	if s.workers <= 1 {
		for _, n := range internal {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("mapper: %w", err)
			}
			c, err := s.curveAt(n)
			if err != nil {
				return err
			}
			s.install(n, c)
		}
		return nil
	}
	return s.postorderLevels(ctx, internal)
}

// postorderLevels schedules the postorder by dependency level: every match
// at a node only reads curves of its match inputs, which sit on strictly
// smaller levels, so all nodes of one level are independent. For the
// structural backends the dependencies are the network fanins (matches
// stay inside the fanin cone, and tree-mode matches are a subset of DAG
// matches); cut matches may bind any topologically earlier node as a leaf,
// so the cut backend levels by its precomputed leaf sets. Curves are
// installed into s.curves between levels — tasks never write shared state.
func (s *state) postorderLevels(ctx context.Context, internal []*network.Node) error {
	depsOf := func(n *network.Node) []*network.Node { return n.Fanin }
	if cm, ok := s.matcher.(*cutMatcher); ok {
		depsOf = cm.depsOf
	}
	level := make(map[*network.Node]int, len(internal))
	var groups [][]*network.Node
	for _, n := range internal { // topo order: dependency levels already known
		l := 0
		for _, f := range depsOf(n) {
			if !f.IsSource() {
				if fl := level[f] + 1; fl > l {
					l = fl
				}
			}
		}
		level[n] = l
		if l == len(groups) {
			groups = append(groups, nil)
		}
		groups[l] = append(groups[l], n)
	}
	for _, g := range groups {
		curves, err := exec.Map(exec.WithLabel(ctx, "mapper.levels"), s.workers, len(g), func(_ context.Context, i int) (*Curve, error) {
			return s.curveAt(g[i])
		})
		if err != nil {
			return err
		}
		for i, c := range curves {
			s.install(g[i], c)
		}
	}
	return nil
}

// install records a finished internal-node curve and feeds the audit hook.
// It runs only on the coordinator goroutine (worker tasks return curves,
// they never write shared state), so the hook sees a race-free, per-run
// deterministic sequence of curves regardless of the worker count.
func (s *state) install(n *network.Node, c *Curve) {
	s.curves[n] = c
	if s.opt.CurveAudit != nil {
		s.opt.CurveAudit(n, c)
	}
}

// curveAt builds one node's pruned curve from all of its matches' candidates
// in one set, reading only installed input curves, so concurrent calls on
// nodes of one level are safe.
func (s *state) curveAt(n *network.Node) (*Curve, error) {
	cs := getCandidateSet()
	defer cs.release()
	matches := s.matcher.matchesAt(n, &cs.match)
	if len(matches) == 0 {
		return nil, fmt.Errorf("mapper: no library match at node %s", n.Name)
	}
	s.obs.matchesPerNode.Observe(float64(len(matches)))
	for j, m := range matches {
		s.matchCandidates(cs, n, int32(j), m)
	}
	generated := len(cs.recs)
	// The curve stashes len(matches), read at extract for the map.site
	// journal event.
	curve := cs.curve(matches, s.opt.Epsilon)
	if len(curve.Points) == 0 {
		return nil, fmt.Errorf("mapper: empty curve at node %s", n.Name)
	}
	s.obs.nodesCovered.Inc()
	s.obs.pointsGenerated.Add(int64(generated))
	s.obs.pointsKept.Add(int64(len(curve.Points)))
	s.obs.pointsPruned.Add(int64(generated - len(curve.Points)))
	s.obs.curveSize.Observe(float64(len(curve.Points)))
	return curve, nil
}

// inputCtx is one input of a match during the merge: its curve, the pin's
// delay and cost terms, and a forward-only cursor into the curve.
type inputCtx struct {
	curve *Curve
	delay float64 // τ + R·C_default for this pin
	fixed float64 // Method 1 pin-charge power, or 0 for area
	div   float64 // fanout division of the accumulated cost
	// next is mergeTimes' cursor: the first point not yet merged.
	next int
	// at is the point seek last returned.
	at int
}

// mergeTimes appends to times, in ascending order, every input point's
// arrival shifted by its pin delay that is at or above lower. Each input
// curve ascends in arrival (Lemma 3.1), so a k-way merge of the inputs'
// suffixes replaces a sort. The merge is cut before the first time t at or
// above bound whose own input point seek(t) reaches, and reports so: every
// candidate from t on arrives at or after t.
func mergeTimes(times []float64, ins []inputCtx, lower, bound float64) ([]float64, bool) {
	for i := range ins {
		ic := &ins[i]
		for ic.next < len(ic.curve.Points) && ic.curve.Points[ic.next].Arrival+ic.delay < lower {
			ic.next++
		}
	}
	for {
		best, bt := -1, 0.0
		for i := range ins {
			ic := &ins[i]
			if ic.next < len(ic.curve.Points) {
				if t := ic.curve.Points[ic.next].Arrival + ic.delay; best < 0 || t < bt {
					best, bt = i, t
				}
			}
		}
		if best < 0 {
			return times, false
		}
		ic := &ins[best]
		if bt >= bound && ic.curve.Points[ic.next].Arrival <= ic.limit(bt) {
			return times, true
		}
		times = append(times, bt)
		ic.next++
	}
}

// limit is the latest input arrival that meets output time t: t - delay,
// within 1e-12.
func (ic *inputCtx) limit(t float64) float64 { return t - ic.delay + 1e-12 }

// seek returns the index of the cheapest input point that meets output
// time t, i.e. the last one with arrival ≤ t - delay (within 1e-12), or
// -1 when none does. Candidate times are visited in ascending order and
// the input curve ascends in arrival (Lemma 3.1), so the cursor only ever
// moves forward: one sweep over the times costs O(times + points).
func (ic *inputCtx) seek(t float64) int {
	limit := ic.limit(t)
	for ic.at+1 < len(ic.curve.Points) && ic.curve.Points[ic.at+1].Arrival <= limit {
		ic.at++
	}
	return ic.at
}

// matchCandidates merges the input curves of one match in their common
// region and appends to cs, as match mi, each resulting trade-off
// candidate that no candidate already in cs weakly dominates (the
// lower-bound merge of [3] emerges from pruning the union afterwards).
// Prune would never keep those: a dominator appended earlier sorts before
// the candidate, and prune keeps a candidate only if it is cheaper than
// every kept one before it (DESIGN.md §4c). matchCandidates only reads
// input curves and writes cs, so concurrent calls on disjoint sets are
// safe.
func (s *state) matchCandidates(cs *candidateSet, n *network.Node, mi int32, m Match) {
	gateCost := 0.0
	if s.opt.Objective == AreaDelay {
		gateCost = m.Cell.Area
	} else {
		gateCost = areaTiebreak * m.Cell.Area
		if s.opt.PowerMethod2 {
			// Method 2 (Equation 16): price this node's own output charge
			// now, with the default load standing in for the unknown one.
			gateCost += s.env.GatePowerUW(s.cdef, n.Activity)
		}
	}
	ins := cs.ins[:0]
	for pin, node := range m.Inputs {
		p := m.Cell.Pins[pin]
		ic := inputCtx{
			curve: s.curves[node],
			delay: p.Block + p.Drive*s.cdef,
			div:   s.fanoutDiv(node),
			at:    -1,
		}
		if s.opt.Objective == PowerDelay && !s.opt.PowerMethod2 {
			// Method 1 (Equation 15): charge the input node's activity
			// into this pin's capacitance; the node's own output charge is
			// deferred to its mapped parent (Section 3.1).
			ic.fixed = s.env.GatePowerUW(p.Load, node.Activity)
		}
		ins = append(ins, ic)
	}
	cs.ins = ins
	// Candidate arrival times: every input point's arrival shifted by its
	// pin delay (merging in the common region). Candidates below the
	// fastest feasible arrival cannot be met by every input and are
	// dropped; near-duplicates within the ε width are merged. No candidate
	// costs less than cmin, the sum over each input's last (cheapest)
	// point in the candidate loop's order (rounded sums are monotone), so
	// every candidate arriving at or after bound, the earliest front point
	// that cheap, is dominated.
	lower, cmin := math.Inf(-1), gateCost
	for _, ic := range ins {
		pts := ic.curve.Points
		if len(pts) == 0 {
			return
		}
		if a := pts[0].Arrival + ic.delay; a > lower {
			lower = a
		}
		cmin += ic.fixed + pts[len(pts)-1].Cost/ic.div
	}
	bound := cs.bound(cmin)
	if bound <= lower { // every candidate arrives at or after lower
		return
	}
	times, cut := mergeTimes(append(cs.times[:0], lower), ins, lower, bound)
	cs.times = times
	spacing := s.opt.Epsilon / 2
	kept := times[:0]
	for i, t := range times {
		// A cut merge ends before the match's last time, which is the one
		// always kept.
		if len(kept) == 0 || t-kept[len(kept)-1] > spacing || i == len(times)-1 && !cut {
			kept = append(kept, t)
		}
	}
	// Along the match, arrivals ascend and costs descend with t, so the
	// front cursor f only moves forward.
	from, front := len(cs.recs), cs.front
	f, prevCost := -1, math.Inf(1)
	for _, t := range kept {
		arrival := math.Inf(-1)
		drive := 0.0
		ok := true
		for i := range ins {
			ic := &ins[i]
			if ic.seek(t) < 0 {
				ok = false
				break
			}
			if a := ic.curve.Points[ic.at].Arrival + ic.delay; a > arrival {
				arrival = a
				drive = m.Cell.Pins[i].Drive
			}
		}
		if !ok {
			continue
		}
		if arrival >= bound { // and so does every later candidate
			break
		}
		cost := gateCost
		for i := range ins {
			ic := &ins[i]
			cost += ic.fixed + ic.curve.Points[ic.at].Cost/ic.div
		}
		for f+1 < len(front) && front[f+1].arrival <= arrival {
			f++
		}
		// Dominated by the match's previous candidate or by the cheapest
		// front point arriving no later.
		dominated := cost >= prevCost || f >= 0 && front[f].cost <= cost
		prevCost = cost
		if dominated {
			continue
		}
		cs.recs = append(cs.recs, candidate{arrival: arrival, cost: cost, drive: drive, match: mi, choice: int32(len(cs.choices))})
		for _, ic := range ins {
			cs.choices = append(cs.choices, int32(ic.at))
		}
	}
	cs.extendFront(from)
}

// fanoutDiv implements the Section 3.3 heuristic: the accumulated cost of a
// multi-fanout input is divided by its fanout count, favoring solutions
// that preserve (share) multi-fanout nodes. The tree backend divides by 1.
func (s *state) fanoutDiv(n *network.Node) float64 {
	if s.opt.Backend == BackendTree || n.Kind != network.Internal {
		return 1
	}
	if f := len(n.Fanout); f > 1 {
		return float64(f)
	}
	return 1
}

// preorder walks from each primary output, selecting at every visited node
// the minimum-cost point meeting its required time under the actual load
// (Subsections 3.2.2 and 3.2.3). Loads and selections are mutually
// dependent (the unknown-load problem), so selection runs as a small number
// of relaxation passes: each pass selects under the loads implied by the
// previous pass's netlist, and the loads are then recomputed exactly.
func (s *state) preorder(ctx context.Context) error {
	// Fix per-output required times once, using first-pass load estimates.
	s.loads = s.freshLoads(nil)
	required := make(map[string]float64, len(s.sub.Outputs))
	for _, o := range s.sub.Outputs {
		if o.Driver.IsSource() {
			continue
		}
		req, given := 0.0, false
		if s.opt.PORequired != nil {
			req, given = s.opt.PORequired[o.Name]
		}
		if !given {
			req = s.minAchievable(o.Driver) * (1 + s.relax)
		}
		required[o.Name] = req
	}
	const passes = 3
	for pass := 0; pass < passes; pass++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mapper: %w", err)
		}
		s.obs.selectPasses.Inc()
		s.chosen = make(map[*network.Node]*selection)
		s.visits = make(map[*network.Node]int)
		for _, o := range s.sub.Outputs {
			if o.Driver.IsSource() {
				continue
			}
			if err := s.selectAt(o.Driver, required[o.Name]); err != nil {
				return err
			}
		}
		newLoads := s.freshLoads(s.chosen)
		s.obs.loadRecalcs.Inc()
		if pass == passes-1 || loadsConverged(s.loads, newLoads) {
			break
		}
		s.loads = newLoads
	}
	return nil
}

// freshLoads computes the load at every signal implied by a selection set:
// the input pin capacitances of all reachable selected gates plus the
// primary-output pads. A nil selection yields the initial estimate (output
// pads only; internal nets default to the library default load via cdef in
// the adjustment formulas).
func (s *state) freshLoads(chosen map[*network.Node]*selection) map[*network.Node]float64 {
	loads := make(map[*network.Node]float64)
	for _, o := range s.sub.Outputs {
		loads[o.Driver] += s.poLoad
	}
	if chosen == nil {
		return loads
	}
	visited := make(map[*network.Node]bool)
	var visit func(n *network.Node)
	visit = func(n *network.Node) {
		if n.IsSource() || visited[n] {
			return
		}
		visited[n] = true
		sel := chosen[n]
		if sel == nil {
			return
		}
		for _, ic := range sel.point.Inputs {
			loads[ic.Node] += sel.point.Cell.Pins[ic.Pin].Load
			visit(ic.Node)
		}
	}
	for _, o := range s.sub.Outputs {
		visit(o.Driver)
	}
	return loads
}

func loadsConverged(a, b map[*network.Node]float64) bool {
	for n, v := range b {
		if math.Abs(a[n]-v) > 1e-9 {
			return false
		}
	}
	for n, v := range a {
		if math.Abs(b[n]-v) > 1e-9 {
			return false
		}
	}
	return true
}

// loadAt returns the current load estimate at a node; nodes without an
// entry see the library default (the unknown-load assumption).
func (s *state) loadAt(n *network.Node) float64 {
	if l, ok := s.loads[n]; ok && l > 0 {
		return l
	}
	return s.cdef
}

// minAchievable is the fastest load-adjusted arrival of the node's curve.
func (s *state) minAchievable(n *network.Node) float64 {
	c := s.curves[n]
	load := s.loadAt(n)
	best := math.Inf(1)
	for _, p := range c.Points {
		if a := p.Arrival + (load-s.cdef)*p.Drive; a < best {
			best = a
		}
	}
	return best
}

const maxVisits = 6

// selectAt picks a gate at node n meeting the required time and recurses
// into the selected match's inputs. Already-mapped nodes keep their
// solution when it still meets timing (the DAG revisit rule of
// Section 3.3); otherwise they are re-selected with the tighter
// requirement. Loads are fixed for the duration of a pass.
func (s *state) selectAt(n *network.Node, required float64) error {
	if n.IsSource() {
		return nil
	}
	load := s.loadAt(n)
	adj := func(p Point) float64 { return p.Arrival + (load-s.cdef)*p.Drive }
	if sel := s.chosen[n]; sel != nil {
		if required >= sel.required-1e-12 || adj(sel.point) <= required+1e-9 {
			if required < sel.required {
				sel.required = required
			}
			return nil
		}
		if s.visits[n] >= maxVisits {
			// Keep the violating solution rather than oscillate; the final
			// report shows the true delay.
			return nil
		}
	}
	s.visits[n]++
	s.obs.nodeVisits.Inc()
	c := s.curves[n]
	bestIdx := -1
	bestCost := math.Inf(1)
	for i, p := range c.Points {
		if adj(p) <= required+1e-9 && p.Cost < bestCost {
			bestCost, bestIdx = p.Cost, i
		}
	}
	fallback := bestIdx < 0
	if fallback {
		// Infeasible required time: fall back to the fastest point.
		bestArr := math.Inf(1)
		for i, p := range c.Points {
			if a := adj(p); a < bestArr {
				bestArr, bestIdx = a, i
			}
		}
	}
	point := c.Points[bestIdx]
	s.chosen[n] = &selection{point: point, required: required, index: bestIdx, fallback: fallback}
	// Recurse with per-input required times derived from Equation 14.
	for _, ic := range point.Inputs {
		pin := point.Cell.Pins[ic.Pin]
		childReq := required - pin.Block - pin.Drive*load
		if err := s.selectAt(ic.Node, childReq); err != nil {
			return err
		}
	}
	return nil
}
