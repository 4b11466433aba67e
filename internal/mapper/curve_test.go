package mapper

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"powermap/internal/genlib"
	"powermap/internal/network"
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
// inputs and inputs lying wholly below lower.
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
		if got := mergeTimes([]float64{lower}, ins, lower); !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged %v, sorted %v", trial, got, want)
		}
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
