package decomp

import (
	"context"
	"errors"
	"math"
	"testing"

	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/prob"
)

// planNetwork duplicates and sweeps nw the way Decompose does, computes the
// probability model, and plans every internal node.
func planNetwork(t *testing.T, nw *network.Network, opt Options) (*network.Network, []*plan) {
	t.Helper()
	cp := nw.Duplicate()
	cp.Sweep()
	model, err := prob.Compute(cp, opt.PIProb, opt.Style)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*plan
	for _, n := range cp.TopoOrder() {
		if n.Kind == network.Internal {
			p, err := makePlan(cp, model, n, opt)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
	}
	return cp, plans
}

// skewedWideAnd returns options under which MINPOWER builds a deep chain
// over the 6-input AND, leaving the bounded pass real work to do.
func skewedWideAnd() Options {
	return Options{
		Strategy: BoundedMinPower,
		Style:    huffman.DominoP,
		PIProb:   map[string]float64{"a": 0.05, "b": 0.1, "c": 0.2, "d": 0.4, "e": 0.6, "f": 0.8},
	}
}

func TestVirtualTimingUnplannedFallback(t *testing.T) {
	// With no plans at all, virtualTiming must degrade to plain unit-delay
	// analysis over the original fanin edges.
	nw := mustParse(t, chainLikeBlif)
	arrival, required := virtualTiming(nw, map[*network.Node]*plan{}, map[string]float64{"y": 2})
	wantArr := map[string]float64{"t1": 1, "t2": 2, "y": 3}
	for name, want := range wantArr {
		if got := arrival[nw.NodeByName(name)]; got != want {
			t.Errorf("arrival(%s) = %v, want %v", name, got, want)
		}
	}
	// required(y)=2 ripples back one unit per level: t2=1, t1=0, a=-1.
	wantReq := map[string]float64{"y": 2, "t2": 1, "t1": 0, "a": -1}
	for name, want := range wantReq {
		if got := required[nw.NodeByName(name)]; got != want {
			t.Errorf("required(%s) = %v, want %v", name, got, want)
		}
	}
	if s := required[nw.NodeByName("y")] - arrival[nw.NodeByName("y")]; s != -1 {
		t.Errorf("slack(y) = %v, want -1", s)
	}
}

const chainLikeBlif = `
.model chainlike
.inputs a b c d
.outputs y
.names a b t1
11 1
.names t1 c t2
11 1
.names t2 d y
11 1
.end
`

func TestVirtualTimingUsesPlannedDepths(t *testing.T) {
	// A planned single-AND node's arrival is its max leaf depth, i.e. the
	// structure height, not the unit-delay 1 of the original fat node.
	opt := skewedWideAnd()
	cp, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	if len(plans) != 1 {
		t.Fatalf("%d plans, want 1", len(plans))
	}
	p := plans[0]
	planOf := map[*network.Node]*plan{p.n: p}
	arrival, _ := virtualTiming(cp, planOf, nil)
	if got, want := arrival[p.n], float64(p.structureHeight()); got != want {
		t.Errorf("planned arrival %v, want structure height %v", got, want)
	}
}

func TestBoundedPassRedecomposesToBound(t *testing.T) {
	opt := skewedWideAnd()
	cp, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	p := plans[0]
	before := p.structureHeight()
	if before <= p.minHeight {
		t.Skipf("minpower already at min height %d; nothing to tighten", p.minHeight)
	}
	n, err := boundedPass(context.Background(), cp, plans, map[string]float64{"y": 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no re-decompositions performed")
	}
	if after := p.structureHeight(); after >= before {
		t.Errorf("structure height %d -> %d, want a reduction", before, after)
	}
	if p.stuck {
		t.Error("successfully tightened plan marked stuck")
	}
}

func TestBoundedPassNoViolationIsNoop(t *testing.T) {
	opt := skewedWideAnd()
	cp, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	before := plans[0].structureHeight()
	n, err := boundedPass(context.Background(), cp, plans, map[string]float64{"y": 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || plans[0].structureHeight() != before || plans[0].stuck {
		t.Errorf("slack-positive pass changed plans: %d redecomps, height %d -> %d, stuck %v",
			n, before, plans[0].structureHeight(), plans[0].stuck)
	}
}

func TestBoundedPassMarksStuckNodes(t *testing.T) {
	// A node whose rebuild cannot shrink it must be marked stuck (not
	// retried forever) and the pass must still terminate cleanly.
	opt := skewedWideAnd()
	cp, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	p := plans[0]
	if p.structureHeight() <= p.minHeight {
		t.Skipf("minpower already at min height %d", p.minHeight)
	}
	p.rebuild = func(limit int) (bool, error) { return false, nil }
	n, err := boundedPass(context.Background(), cp, plans, map[string]float64{"y": 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%d redecompositions counted for failed rebuilds", n)
	}
	if !p.stuck {
		t.Error("unshrinkable plan not marked stuck")
	}
}

func TestBoundedPassPropagatesRebuildError(t *testing.T) {
	opt := skewedWideAnd()
	cp, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	p := plans[0]
	if p.structureHeight() <= p.minHeight {
		t.Skipf("minpower already at min height %d", p.minHeight)
	}
	boom := errors.New("boom")
	p.rebuild = func(limit int) (bool, error) { return false, boom }
	if _, err := boundedPass(context.Background(), cp, plans, map[string]float64{"y": 3}, nil); !errors.Is(err, boom) {
		t.Errorf("rebuild error not propagated: %v", err)
	}
}

func TestBoundedPassMaxIters(t *testing.T) {
	// The pass gives up after 2×#plans iterations. Skewed probabilities
	// make MINPOWER chain the 8-input AND (height 7, minimum 3); a rebuild
	// that tightens one level per iteration then needs 4 iterations to
	// meet y's target of 3, but the one plan gets only 2.
	nw := mustParse(t, ".model and8\n.inputs a b c d e f g h\n.outputs y\n.names a b c d e f g h y\n11111111 1\n.end\n")
	opt := Options{Strategy: BoundedMinPower, Style: huffman.DominoP, PIProb: map[string]float64{
		"a": 0.02, "b": 0.05, "c": 0.1, "d": 0.2, "e": 0.3, "f": 0.5, "g": 0.7, "h": 0.9}}
	cp, plans := planNetwork(t, nw, opt)
	p := plans[0]
	if h := p.structureHeight(); h != 7 || p.minHeight != 3 {
		t.Fatalf("minpower height %d, minimum %d; want a 7-high chain over minimum 3", h, p.minHeight)
	}
	rebuild := p.rebuild
	p.rebuild = func(int) (bool, error) { return rebuild(p.structureHeight() - 1) }
	n, err := boundedPass(context.Background(), cp, plans, map[string]float64{"y": 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || p.structureHeight() != 5 {
		t.Errorf("%d redecompositions to height %d, want 2 to height 5", n, p.structureHeight())
	}
}

func TestBoundedPassCancellation(t *testing.T) {
	opt := skewedWideAnd()
	cp, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := boundedPass(ctx, cp, plans, map[string]float64{"y": 3}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled pass returned %v", err)
	}
}

func TestRebuildBoundedSingleLiteral(t *testing.T) {
	// An inverter plan has nothing to restructure: any non-negative limit
	// is feasible as-is.
	nw := mustParse(t, ".model inv\n.inputs a b\n.outputs y\n.names a b t\n11 1\n.names t y\n0 1\n.end\n")
	_, plans := planNetwork(t, nw, Options{Strategy: MinPower, Style: huffman.Static})
	var invPlan *plan
	for _, p := range plans {
		if len(p.cubes) == 1 && len(p.cubes[0]) == 1 {
			invPlan = p
		}
	}
	if invPlan == nil {
		t.Fatal("no single-literal plan found")
	}
	if ok, err := invPlan.rebuild(0); err != nil || !ok {
		t.Errorf("rebuild(0) = %v, %v; want feasible", ok, err)
	}
	if ok, err := invPlan.rebuild(-1); err != nil || ok {
		t.Errorf("rebuild(-1) = %v, %v; want infeasible", ok, err)
	}
}

func TestRebuildBoundedSingleCube(t *testing.T) {
	// One 6-literal cube: ceil(log2 6) = 3 is the tightest feasible bound.
	opt := skewedWideAnd()
	_, plans := planNetwork(t, mustParse(t, wideAndBlif), opt)
	p := plans[0]
	if ok, err := p.rebuild(2); err != nil || ok {
		t.Errorf("rebuild(2) = %v, %v; want infeasible for 6 leaves", ok, err)
	}
	if ok, err := p.rebuild(3); err != nil || !ok {
		t.Fatalf("rebuild(3) = %v, %v; want feasible", ok, err)
	}
	if h := p.structureHeight(); h > 3 {
		t.Errorf("rebuilt height %d exceeds limit 3", h)
	}
}

func TestRebuildBoundedMultiCube(t *testing.T) {
	// Three 2-literal cubes: the OR tree needs 2 levels and each AND tree 1,
	// so 3 is the minimum and 2 must be rejected. The rebuild searches
	// OR/AND budget splits and keeps the cheapest feasible one.
	nw := mustParse(t, sopBlif)
	for _, exact := range []bool{false, true} {
		opt := Options{Strategy: MinPower, Style: huffman.Static, Exact: exact,
			PIProb: map[string]float64{"a": 0.1, "b": 0.3, "c": 0.7, "d": 0.9}}
		_, plans := planNetwork(t, nw, opt)
		var p *plan
		for _, q := range plans {
			if len(q.cubes) == 3 {
				p = q
			}
		}
		if p == nil {
			t.Fatal("no 3-cube plan found")
		}
		if p.minHeight != 3 {
			t.Fatalf("exact=%v: minHeight %d, want 3", exact, p.minHeight)
		}
		if ok, err := p.rebuild(2); err != nil || ok {
			t.Errorf("exact=%v: rebuild(2) = %v, %v; want infeasible", exact, ok, err)
		}
		for limit := 3; limit <= 4; limit++ {
			if ok, err := p.rebuild(limit); err != nil || !ok {
				t.Fatalf("exact=%v: rebuild(%d) = %v, %v; want feasible", exact, limit, ok, err)
			}
			if h := p.structureHeight(); h > limit {
				t.Errorf("exact=%v: rebuilt height %d exceeds limit %d", exact, h, limit)
			}
		}
	}
}

func TestConventionalArrivalsMatchBalancedDepth(t *testing.T) {
	// The default required times of the bounded strategy are the balanced
	// decomposition's output arrivals: ceil(log2 6) = 3 for the 6-input AND.
	opt := skewedWideAnd()
	nw := mustParse(t, wideAndBlif)
	cp := nw.Duplicate()
	cp.Sweep()
	model, err := prob.Compute(cp, opt.PIProb, opt.Style)
	if err != nil {
		t.Fatal(err)
	}
	req, err := conventionalArrivals(context.Background(), cp, model, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(req["y"]-3) > 1e-12 {
		t.Errorf("conventional required(y) = %v, want 3", req["y"])
	}
}

// chainBlif has a three-level chain to y beside a one-level z.
const chainBlif = `
.model chain
.inputs a b c d
.outputs y z
.names a b t1
11 1
.names t1 c t2
11 1
.names t2 d y
11 1
.names a b z
11 1
.end
`

func TestUnitDepthArrival(t *testing.T) {
	nw := mustParse(t, chainBlif)
	if depth := unitDepth(context.Background(), nw, nil); depth != 3 {
		t.Errorf("network depth = %v, want 3", depth)
	}
}

func TestUnitDepthNoOutputs(t *testing.T) {
	// A network with no outputs has zero depth by definition.
	nw := network.New("empty")
	nw.AddPI("a")
	if depth := unitDepth(context.Background(), nw, nil); depth != 0 {
		t.Errorf("depth = %v, want 0", depth)
	}
}
