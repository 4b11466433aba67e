package mapper

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"powermap/internal/circuits"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/network"
	"powermap/internal/prob"
)

// pruneReference is the stable-sort prune the candidate-index prune
// replaced, kept as the oracle: sort by (arrival, cost) keeping input
// order among equals, drop inferior points, ε-merge, then cap.
func pruneReference(c *Curve, eps float64) {
	if len(c.Points) == 0 {
		return
	}
	sort.SliceStable(c.Points, func(i, j int) bool {
		if c.Points[i].Arrival != c.Points[j].Arrival {
			return c.Points[i].Arrival < c.Points[j].Arrival
		}
		return c.Points[i].Cost < c.Points[j].Cost
	})
	out := c.Points[:0]
	bestCost := math.Inf(1)
	for _, p := range c.Points {
		if p.Cost < bestCost-1e-15 {
			out = append(out, p)
			bestCost = p.Cost
		}
	}
	c.Points = out
	if eps <= 0 || len(c.Points) < 3 {
		return
	}
	merged := c.Points[:1]
	for i := 1; i < len(c.Points); i++ {
		p := c.Points[i]
		last := &merged[len(merged)-1]
		if p.Arrival-last.Arrival < eps && i != len(c.Points)-1 {
			*last = p
			continue
		}
		merged = append(merged, p)
	}
	c.Points = merged
	if len(c.Points) > maxCurvePoints {
		kept := make([]Point, 0, maxCurvePoints)
		step := float64(len(c.Points)-1) / float64(maxCurvePoints-1)
		prev := -1
		for i := 0; i < maxCurvePoints; i++ {
			idx := int(float64(i)*step + 0.5)
			if idx <= prev {
				idx = prev + 1
			}
			if idx >= len(c.Points) {
				idx = len(c.Points) - 1
			}
			kept = append(kept, c.Points[idx])
			prev = idx
		}
		c.Points = kept
	}
}

// cheapestAtOrBefore is the linear scan the forward cursors replaced,
// kept as their oracle: the index of the minimum-cost point whose arrival
// is ≤ t, or -1 when no point meets t. Curves are monotone, so that is
// the last point with Arrival ≤ t.
func (c *Curve) cheapestAtOrBefore(t float64) int {
	idx := -1
	for i := range c.Points {
		if c.Points[i].Arrival <= t+1e-12 {
			idx = i
		} else {
			break
		}
	}
	return idx
}

// matchCandidatesReference is the candidate loop without the dominance
// bound, kept as its oracle: it appends every candidate of match m at n,
// reading the installed input curves.
func (s *state) matchCandidatesReference(cs *candidateSet, n *network.Node, mi int32, m Match) {
	gateCost := 0.0
	if s.opt.Objective == AreaDelay {
		gateCost = m.Cell.Area
	} else {
		gateCost = areaTiebreak * m.Cell.Area
		if s.opt.PowerMethod2 {
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
			ic.fixed = s.env.GatePowerUW(p.Load, node.Activity)
		}
		ins = append(ins, ic)
	}
	cs.ins = ins
	lower := math.Inf(-1)
	for _, ic := range ins {
		if len(ic.curve.Points) == 0 {
			return
		}
		if a := ic.curve.Points[0].Arrival + ic.delay; a > lower {
			lower = a
		}
	}
	times, _ := mergeTimes(append(cs.times[:0], lower), ins, lower, math.Inf(1))
	cs.times = times
	spacing := s.opt.Epsilon / 2
	kept := times[:0]
	for i, t := range times {
		if len(kept) == 0 || t-kept[len(kept)-1] > spacing || i == len(times)-1 {
			kept = append(kept, t)
		}
	}
	for _, t := range kept {
		arrival := math.Inf(-1)
		cost := gateCost
		drive := 0.0
		ok := true
		for i := range ins {
			ic := &ins[i]
			if ic.seek(t) < 0 {
				ok = false
				break
			}
			pt := &ic.curve.Points[ic.at]
			if a := pt.Arrival + ic.delay; a > arrival {
				arrival = a
				drive = m.Cell.Pins[i].Drive
			}
			cost += ic.fixed + pt.Cost/ic.div
		}
		if !ok {
			continue
		}
		cs.recs = append(cs.recs, candidate{arrival: arrival, cost: cost, drive: drive, match: mi, choice: int32(len(cs.choices))})
		for _, ic := range ins {
			cs.choices = append(cs.choices, int32(ic.at))
		}
	}
}

// prunePoints runs the production prune over pts, taken as candidates in
// slice order, and returns the surviving points in curve order.
func prunePoints(pts []Point, eps float64) []Point {
	recs := make([]candidate, len(pts))
	for i, p := range pts {
		recs[i] = candidate{arrival: p.Arrival, cost: p.Cost}
	}
	var out []Point
	for _, i := range (&candidateSet{recs: recs}).prune(eps) {
		out = append(out, pts[i])
	}
	return out
}

// checkPruneMatchesReference fails unless the production prune keeps
// exactly the candidates the stable-sort reference keeps, in the same
// order. Each candidate is tagged with its index through Drive, which
// neither prune reads.
func checkPruneMatchesReference(t *testing.T, label string, arrivals, costs []float64, eps float64) {
	t.Helper()
	recs := make([]candidate, len(arrivals))
	ref := &Curve{Points: make([]Point, len(arrivals))}
	for i := range arrivals {
		recs[i] = candidate{arrival: arrivals[i], cost: costs[i]}
		ref.Points[i] = Point{Arrival: arrivals[i], Cost: costs[i], Drive: float64(i)}
	}
	got := (&candidateSet{recs: recs}).prune(eps)
	pruneReference(ref, eps)
	want := make([]int32, len(ref.Points))
	for i, p := range ref.Points {
		want[i] = int32(p.Drive)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s, eps %v, %d candidates: prune kept %v, reference %v", label, eps, len(arrivals), got, want)
	}
}

func randomCurve(r *rand.Rand, n int) *Curve {
	c := &Curve{}
	for i := 0; i < n; i++ {
		c.Points = append(c.Points, Point{
			Arrival: r.Float64() * 10,
			Cost:    r.Float64() * 100,
		})
	}
	return c
}

func TestPruneMonotone(t *testing.T) {
	// Property (Lemma 3.1): after pruning, arrivals strictly increase and
	// costs strictly decrease — only non-inferior points remain.
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		pts := prunePoints(randomCurve(r, 1+r.Intn(60)).Points, 0)
		for i := 1; i < len(pts); i++ {
			if pts[i].Arrival <= pts[i-1].Arrival {
				t.Fatalf("arrivals not increasing: %v", pts)
			}
			if pts[i].Cost >= pts[i-1].Cost {
				t.Fatalf("costs not decreasing: %v", pts)
			}
		}
	}
}

func TestPruneKeepsBestEndpoints(t *testing.T) {
	// The fastest point and the cheapest point must survive pruning (as
	// the first and last points).
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		c := randomCurve(r, 2+r.Intn(60))
		minArr, minCostAtMinArr := c.Points[0].Arrival, c.Points[0].Cost
		minCost := c.Points[0].Cost
		for _, p := range c.Points[1:] {
			if p.Arrival < minArr || (p.Arrival == minArr && p.Cost < minCostAtMinArr) {
				minArr, minCostAtMinArr = p.Arrival, p.Cost
			}
			if p.Cost < minCost {
				minCost = p.Cost
			}
		}
		pts := prunePoints(c.Points, 0)
		if pts[0].Arrival != minArr {
			t.Fatalf("fastest arrival %v lost, have %v", minArr, pts[0].Arrival)
		}
		if pts[len(pts)-1].Cost != minCost {
			t.Fatalf("cheapest cost %v lost, have %v", minCost, pts[len(pts)-1].Cost)
		}
	}
}

func TestPruneDominance(t *testing.T) {
	// Every dropped point must be dominated by some kept point.
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 100; trial++ {
		orig := randomCurve(r, 2+r.Intn(40)).Points
		pts := prunePoints(orig, 0)
		for _, p := range orig {
			dominated := false
			for _, k := range pts {
				if k.Arrival <= p.Arrival+1e-15 && k.Cost <= p.Cost+1e-15 {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("point (%v,%v) dropped without a dominator", p.Arrival, p.Cost)
			}
		}
	}
}

func TestPruneCap(t *testing.T) {
	// Build a strictly non-inferior staircase bigger than the cap.
	var staircase []Point
	n := maxCurvePoints * 3
	for i := 0; i < n; i++ {
		staircase = append(staircase, Point{
			Arrival: float64(i),
			Cost:    float64(n - i),
		})
	}
	pts := prunePoints(staircase, 0.0001)
	if len(pts) > maxCurvePoints {
		t.Fatalf("cap not enforced: %d points", len(pts))
	}
	if pts[0].Arrival != 0 {
		t.Error("fastest endpoint lost by cap")
	}
	if pts[len(pts)-1].Cost != 1 {
		t.Error("cheapest endpoint lost by cap")
	}
}

func TestEpsilonMergeSpacing(t *testing.T) {
	// After ε-pruning, interior arrivals advance by at least ε.
	r := rand.New(rand.NewSource(79))
	const eps = 0.5
	for trial := 0; trial < 100; trial++ {
		pts := prunePoints(randomCurve(r, 3+r.Intn(50)).Points, eps)
		for i := 1; i+1 < len(pts); i++ {
			if pts[i].Arrival-pts[i-1].Arrival < eps-1e-12 {
				t.Fatalf("ε spacing violated at %d: %v", i, pts)
			}
		}
	}
}

// TestPruneMatchesReference: the index-sorted prune keeps the same
// candidates in the same order as the stable-sort reference, including
// exact (arrival, cost) duplicates, which only the index tie-break
// orders, cost near-ties inside the 1e-15 dominance tolerance, and
// staircases longer than the cap.
func TestPruneMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	gens := []struct {
		name string
		gen  func(n int) (arrival, cost float64)
	}{
		{"uniform", func(int) (float64, float64) { return r.Float64() * 10, r.Float64() * 100 }},
		{"duplicates", func(int) (float64, float64) { return float64(r.Intn(6)) / 4, float64(r.Intn(6)) }},
		{"near-ties", func(int) (float64, float64) { return float64(r.Intn(12)) / 8, 1 + float64(r.Intn(8))*3e-16 }},
		{"staircase", func(i int) (float64, float64) {
			return float64(i)*0.1 + r.Float64()*0.01, 1000 - float64(i) + r.Float64()*0.01
		}},
	}
	for _, g := range gens {
		for _, eps := range []float64{0, 0.05} {
			for trial := 0; trial < 100; trial++ {
				n := r.Intn(80)
				if g.name == "staircase" {
					n += 2 * maxCurvePoints
				}
				a, c := make([]float64, n), make([]float64, n)
				for i := range a {
					a[i], c[i] = g.gen(i)
				}
				r.Shuffle(n, func(i, j int) { a[i], a[j], c[i], c[j] = a[j], a[i], c[j], c[i] })
				checkPruneMatchesReference(t, g.name, a, c, eps)
			}
		}
	}
}

// FuzzPrune decodes byte pairs into candidates and checks the production
// prune against the stable-sort reference. mode picks eps (bits 0-1) and
// the shape: coarse grid values with many exact duplicates, a staircase
// that exceeds the cap (bit 2), or costs packed within a few ulps of 1 so
// that near-ties fall inside the 1e-15 tolerance (bit 3). The seed corpus
// in testdata/fuzz/FuzzPrune holds one case of each.
func FuzzPrune(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		n := len(data) / 2
		arrivals, costs := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a, c := data[2*i], data[2*i+1]
			arrivals[i], costs[i] = float64(a)/16, float64(c)/16
			if mode&4 != 0 {
				arrivals[i] = float64(i)*0.25 + float64(a)/1024
				costs[i] = float64(n-i) + float64(c)/1024
			}
			if mode&8 != 0 {
				costs[i] = 1 + float64(c&7)*3e-16
			}
		}
		eps := [...]float64{0, 0.05, 0.5, 0}[mode&3]
		checkPruneMatchesReference(t, "fuzz", arrivals, costs, eps)
	})
}

// TestCandidateCurveMaterializesSurvivors: only surviving candidates
// become points, each with its match's cell and class and its own input
// choices, and no Inputs slice has spare capacity to grow into the next.
func TestCandidateCurveMaterializesSurvivors(t *testing.T) {
	lib := genlib.Lib2()
	a, b, c := &network.Node{Name: "a"}, &network.Node{Name: "b"}, &network.Node{Name: "c"}
	matches := []Match{
		{Cell: lib.Nand2(), Inputs: []*network.Node{a, b}},
		{Cell: lib.Inverter(), Inputs: []*network.Node{c}, Class: "k"},
	}
	cs := candidateSet{
		recs: []candidate{
			{arrival: 1, cost: 9, drive: 0.5, match: 0, choice: 0},
			{arrival: 2, cost: 9, match: 0, choice: 2}, // dominated
			{arrival: 3, cost: 4, drive: 0.25, match: 1, choice: 4},
			{arrival: 2, cost: 5, drive: 0.75, match: 0, choice: 5},
		},
		choices: []int32{0, 1, 7, 7, 2, 3, 4},
	}
	curve := cs.curve(matches, 0)
	want := []struct {
		arrival, cost, drive float64
		match                int
		points               []int
	}{
		{1, 9, 0.5, 0, []int{0, 1}},
		{2, 5, 0.75, 0, []int{3, 4}},
		{3, 4, 0.25, 1, []int{2}},
	}
	if len(curve.Points) != len(want) || curve.matches != len(matches) {
		t.Fatalf("got %d points over %d matches, want %d over %d", len(curve.Points), curve.matches, len(want), len(matches))
	}
	for i, w := range want {
		p, m := curve.Points[i], matches[w.match]
		if p.Arrival != w.arrival || p.Cost != w.cost || p.Drive != w.drive || p.Cell != m.Cell || p.class != m.Class {
			t.Errorf("point %d = %+v, want %+v of match %d", i, p, w, w.match)
		}
		if len(p.Inputs) != len(m.Inputs) || cap(p.Inputs) != len(p.Inputs) {
			t.Fatalf("point %d: %d inputs with capacity %d, want %d full", i, len(p.Inputs), cap(p.Inputs), len(m.Inputs))
		}
		for pin, ic := range p.Inputs {
			if ic.Node != m.Inputs[pin] || ic.Pin != pin || ic.Point != w.points[pin] {
				t.Errorf("point %d pin %d = %+v, want node %s point %d", i, pin, ic, m.Inputs[pin].Name, w.points[pin])
			}
		}
	}
}

// TestSeekMatchesCheapestAtOrBefore: a cursor swept over ascending
// candidate times lands where the linear scan from the start would.
func TestSeekMatchesCheapestAtOrBefore(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for trial := 0; trial < 300; trial++ {
		pts := randomCurve(r, 1+r.Intn(80)).Points
		delay := r.Float64()
		if trial%2 == 0 { // grid values, where the edge is exact
			for i := range pts {
				pts[i].Arrival = float64(r.Intn(64)) / 8
			}
			delay = float64(r.Intn(4)) / 4
		}
		c := &Curve{Points: prunePoints(pts, []float64{0, 0.05}[trial%3%2])}
		ic := inputCtx{curve: c, delay: delay, at: -1}
		times := make([]float64, r.Intn(60))
		for i := range times {
			times[i] = r.Float64()*12 - 1
		}
		// Exact point arrivals shifted by the delay, and times whose limit
		// lands back on a point arrival, hit the 1e-12 edge.
		for _, p := range c.Points {
			times = append(times, p.Arrival+ic.delay, p.Arrival+ic.delay-1e-12)
		}
		sort.Float64s(times)
		for _, tv := range times {
			if got, want := ic.seek(tv), c.cheapestAtOrBefore(tv-ic.delay); got != want {
				t.Fatalf("trial %d: seek(%v) = %d, linear scan %d", trial, tv, got, want)
			}
		}
	}
}

// TestMergeTimesMatchesSort: merging the inputs' shifted arrivals yields
// the sorted list the candidate times used to be built from — lower, then
// every shifted arrival at or above it — including exact ties across
// inputs and inputs lying wholly below lower. A bound above lower cuts
// that list before its first time at or above the bound.
func TestMergeTimesMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 300; trial++ {
		ins := make([]inputCtx, 1+r.Intn(4))
		for i := range ins {
			pts := randomCurve(r, 1+r.Intn(30)).Points
			if trial%3 == 0 {
				for j := range pts { // coarse grid: ties within and across inputs
					pts[j].Arrival = float64(r.Intn(8)) / 4
				}
			}
			ins[i] = inputCtx{curve: &Curve{Points: prunePoints(pts, 0)}, delay: float64(r.Intn(4)) / 2}
		}
		lower := math.Inf(-1)
		for _, ic := range ins {
			lower = math.Max(lower, ic.curve.Points[0].Arrival+ic.delay)
		}
		want := []float64{lower}
		for _, ic := range ins {
			for _, p := range ic.curve.Points {
				if tv := p.Arrival + ic.delay; tv >= lower {
					want = append(want, tv)
				}
			}
		}
		sort.Float64s(want)
		unbounded := slices.Clone(ins)
		if got, cut := mergeTimes([]float64{lower}, unbounded, lower, math.Inf(1)); cut || !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged %v (cut %v), sorted %v", trial, got, cut, want)
		}
		bound := want[r.Intn(len(want))] + float64(r.Intn(2))/8
		if bound <= lower {
			continue
		}
		k := sort.SearchFloat64s(want, bound)
		if got, cut := mergeTimes([]float64{lower}, ins, lower, bound); cut != (k < len(want)) || !slices.Equal(got, want[:k]) {
			t.Fatalf("trial %d: bound %v merged %v (cut %v), want %v", trial, bound, got, cut, want[:k])
		}
	}
	// Near 32 µs the rounding of t - delay exceeds seek's 1e-12 slack, so
	// seek(t) misses the point t came from, and the candidate at t may
	// arrive before t. That time must not cut the merge.
	a := 32084.425611669558
	ic := inputCtx{curve: &Curve{Points: []Point{{Arrival: a - 1}, {Arrival: a}}}, delay: 3.7064910261815385}
	lower, tm := a-1+ic.delay, a+ic.delay
	if ic.limit(tm) >= a {
		t.Fatalf("limit(%v) = %v reaches %v", tm, ic.limit(tm), a)
	}
	if got, cut := mergeTimes([]float64{lower}, []inputCtx{ic}, lower, tm); cut || !slices.Equal(got, []float64{lower, lower, tm}) {
		t.Fatalf("bound at a missed point: merged %v (cut %v), want every time", got, cut)
	}
}

func TestCheapestAtOrBefore(t *testing.T) {
	c := &Curve{Points: []Point{
		{Arrival: 1, Cost: 10},
		{Arrival: 2, Cost: 5},
		{Arrival: 4, Cost: 1},
	}}
	cases := []struct {
		t    float64
		want int
	}{
		{0.5, -1}, {1, 0}, {1.5, 0}, {2, 1}, {3.9, 1}, {4, 2}, {100, 2},
	}
	for _, tc := range cases {
		if got := c.cheapestAtOrBefore(tc.t); got != tc.want {
			t.Errorf("cheapestAtOrBefore(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestCheapestConsistentWithPrune(t *testing.T) {
	// Property: for any t, the chosen point is the min cost among points
	// with arrival ≤ t.
	check := func(raws [16]uint8, tRaw uint8) bool {
		var pts []Point
		for i := 0; i < len(raws); i += 2 {
			pts = append(pts, Point{
				Arrival: float64(raws[i]) / 16,
				Cost:    float64(raws[i+1]),
			})
		}
		c := &Curve{Points: prunePoints(pts, 0)}
		tv := float64(tRaw) / 16
		idx := c.cheapestAtOrBefore(tv)
		if idx == -1 {
			for _, p := range c.Points {
				if p.Arrival <= tv {
					return false
				}
			}
			return true
		}
		best := c.Points[idx]
		for _, p := range c.Points {
			if p.Arrival <= tv+1e-12 && p.Cost < best.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// checkBoundMatchesReference maps sub sequentially and, as each curve is
// installed, rebuilds it from every candidate of the node's matches with
// the unbounded reference loop over the installed input curves. It
// returns the number of curves checked.
func checkBoundMatchesReference(t *testing.T, label string, sub *network.Network, model *prob.Model, opt Options) int {
	t.Helper()
	ctx := context.Background()
	opt.Library, opt.Workers = genlib.Lib2(), 1
	var s *state
	checked, mismatch := 0, ""
	opt.CurveAudit = func(n *network.Node, c *Curve) {
		cs := getCandidateSet()
		defer cs.release()
		matches := s.matcher.matchesAt(n, &cs.match)
		for j, m := range matches {
			s.matchCandidatesReference(cs, n, int32(j), m)
		}
		want := cs.curve(matches, s.opt.Epsilon)
		if mismatch == "" && !reflect.DeepEqual(c.Points, want.Points) {
			mismatch = fmt.Sprintf("node %s: %d points, reference %d", n.Name, len(c.Points), len(want.Points))
		}
		checked++
	}
	s, err := newState(ctx, sub, model, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := s.postorder(ctx); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if mismatch != "" {
		t.Errorf("%s: %s", label, mismatch)
	}
	return checked
}

// TestDominanceBoundMatchesReference: skipping the candidates an earlier
// candidate of the node weakly dominates changes no curve. Every curve
// installed is compared with the prune of the node's full candidate set.
// All bundled circuits run the structural and LUT-4 backends under both
// objectives with ε at its default; the small ones and random networks
// also run the library cut matcher and ε off, the costliest settings.
func TestDominanceBoundMatchesReference(t *testing.T) {
	type net struct {
		subjectNet
		full bool // every backend and ε off too
	}
	var nets []net
	decompose := func(name string, src *network.Network, strategy decomp.Strategy, full bool) {
		sub, model := decomposed(t, src, strategy)
		nets = append(nets, net{subjectNet{name, sub, model}, full})
	}
	for _, b := range circuits.Suite() {
		decompose(b.Name, b.Build(), decomp.MinPower, b.Name == "cm42a" || b.Name == "s208" || b.Name == "x2")
	}
	for seed := int64(1); seed <= 6; seed++ {
		name := fmt.Sprintf("random-%d", seed)
		src := circuits.Random(name, seed, 5+int(seed%3), 2+int(seed%3), 10+3*int(seed))
		decompose(name+"-conventional", src, decomp.Conventional, true)
		decompose(name+"-minpower", src, decomp.MinPower, true)
	}
	modes := []struct {
		name     string
		backend  Backend
		lut      int
		everyNet bool
	}{
		{"dag", BackendStructural, 0, true},
		{"tree", BackendTree, 0, true},
		{"cuts", BackendCuts, 0, false},
		{"lut4", BackendCuts, 4, true},
	}
	curves := 0
	for _, nt := range nets {
		for _, md := range modes {
			for _, obj := range []Objective{AreaDelay, PowerDelay} {
				for _, eps := range []float64{0, -1} {
					if !nt.full && (!md.everyNet || eps != 0) {
						continue
					}
					label := fmt.Sprintf("%s %s %v eps=%v", nt.name, md.name, obj, eps)
					curves += checkBoundMatchesReference(t, label, nt.sub, nt.model, Options{
						Objective: obj, Backend: md.backend, LUT: md.lut, Epsilon: eps,
					})
				}
			}
		}
	}
	t.Logf("%d curves on %d subject networks match the reference", curves, len(nets))
}
