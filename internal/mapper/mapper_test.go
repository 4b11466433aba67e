package mapper

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"powermap/internal/blif"
	"powermap/internal/circuits"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/prob"
	"powermap/internal/sop"
)

// subject builds a NAND2/INV subject network from BLIF text via decomp.
func subject(t *testing.T, text string) (*network.Network, *prob.Model) {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return decomposed(t, nw, decomp.MinPower)
}

// subjectNet is a named subject network with its probability model.
type subjectNet struct {
	name  string
	sub   *network.Network
	model *prob.Model
}

// decomposed decomposes nw with the given strategy into a static-style
// NAND2/INV subject network.
func decomposed(t *testing.T, nw *network.Network, strategy decomp.Strategy) (*network.Network, *prob.Model) {
	t.Helper()
	res, err := decomp.Decompose(context.Background(), nw, decomp.Options{
		Strategy: strategy,
		Style:    huffman.Static,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Network, res.Model
}

const smallBlif = `
.model small
.inputs a b c d
.outputs y z
.names a b t1
11 1
.names t1 c t2
1- 1
-1 1
.names t2 d y
11 1
.names a c z
0- 1
-0 1
.end
`

// relax returns a pointer to v, for Options.Relax.
func relax(v float64) *float64 { return &v }

func mapSmall(t *testing.T, opt Options) *Netlist {
	t.Helper()
	sub, model := subject(t, smallBlif)
	if opt.Library == nil {
		opt.Library = genlib.Lib2()
	}
	nl, err := Map(context.Background(), sub, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Verify(model); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return nl
}

func TestMapAreaDelay(t *testing.T) {
	nl := mapSmall(t, Options{Objective: AreaDelay})
	if len(nl.Gates) == 0 {
		t.Fatal("no gates mapped")
	}
	if nl.Report.GateArea <= 0 || nl.Report.Delay <= 0 || nl.Report.PowerUW <= 0 {
		t.Errorf("degenerate report: %+v", nl.Report)
	}
}

func TestMapPowerDelay(t *testing.T) {
	nl := mapSmall(t, Options{Objective: PowerDelay})
	if len(nl.Gates) == 0 {
		t.Fatal("no gates mapped")
	}
}

func TestPdMapNotWorsePowerThanAdMapWhenRelaxed(t *testing.T) {
	// With slack available, pd-map must spend it on power, ad-map on area.
	ad := mapSmall(t, Options{Objective: AreaDelay, Relax: relax(0.5)})
	pd := mapSmall(t, Options{Objective: PowerDelay, Relax: relax(0.5)})
	if pd.Report.PowerUW > ad.Report.PowerUW*1.05+1e-9 {
		t.Errorf("pd-map power %.3f clearly worse than ad-map %.3f",
			pd.Report.PowerUW, ad.Report.PowerUW)
	}
	if ad.Report.GateArea > pd.Report.GateArea*1.5 {
		t.Errorf("ad-map area %.1f much worse than pd-map %.1f",
			ad.Report.GateArea, pd.Report.GateArea)
	}
}

func TestRequiredTimesTradeCost(t *testing.T) {
	// Tight timing must never be cheaper AND faster to satisfy than loose
	// timing; loose timing should not be slower than... it can be slower
	// but not more power-hungry.
	tight := mapSmall(t, Options{Objective: PowerDelay, Relax: relax(0)})
	loose := mapSmall(t, Options{Objective: PowerDelay, Relax: relax(1.0)})
	if loose.Report.PowerUW > tight.Report.PowerUW+1e-9 {
		t.Errorf("loose timing power %.3f exceeds tight timing power %.3f",
			loose.Report.PowerUW, tight.Report.PowerUW)
	}
	// Delay ordering is not strictly guaranteed — the unknown-load problem
	// means big fast cells load their drivers more (Section 3.2.3) — but
	// the tight mapping must stay in the same delay regime.
	if tight.Report.Delay > loose.Report.Delay*1.6+1e-9 {
		t.Errorf("tight mapping (%.3f ns) much slower than loose mapping (%.3f ns)",
			tight.Report.Delay, loose.Report.Delay)
	}
}

func TestTreeBackendWorks(t *testing.T) {
	nl := mapSmall(t, Options{Objective: PowerDelay, Backend: BackendTree})
	if len(nl.Gates) == 0 {
		t.Fatal("tree backend mapped nothing")
	}
}

func TestEpsilonPruningStillValid(t *testing.T) {
	exact := mapSmall(t, Options{Objective: PowerDelay})
	pruned := mapSmall(t, Options{Objective: PowerDelay, Epsilon: 0.5})
	// ε-pruning may cost a little quality but must stay in the ballpark.
	if pruned.Report.PowerUW > exact.Report.PowerUW*1.5 {
		t.Errorf("epsilon pruning degraded power %.3f -> %.3f too much",
			exact.Report.PowerUW, pruned.Report.PowerUW)
	}
}

func TestExplicitRequiredTimes(t *testing.T) {
	sub, model := subject(t, smallBlif)
	lib := genlib.Lib2()
	// First find the fastest achievable delay.
	fast, err := Map(context.Background(), sub, model, Options{Objective: PowerDelay, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]float64{}
	for _, o := range sub.Outputs {
		req[o.Name] = fast.Report.Delay * 2
	}
	slow, err := Map(context.Background(), sub, model, Options{Objective: PowerDelay, Library: lib, PORequired: req})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Report.Delay > fast.Report.Delay*2+1e-9 {
		t.Errorf("required times violated: %.3f > %.3f", slow.Report.Delay, fast.Report.Delay*2)
	}
	if slow.Report.PowerUW > fast.Report.PowerUW+1e-9 {
		t.Errorf("relaxed mapping uses more power: %.3f > %.3f",
			slow.Report.PowerUW, fast.Report.PowerUW)
	}
}

func TestMatcherFindsComplexGates(t *testing.T) {
	// AOI21: y = !(a*b + c). Build its subject graph directly.
	nw := network.New("aoi")
	a, b, c := nw.AddPI("a"), nw.AddPI("b"), nw.AddPI("c")
	nd := nw.AddNode("nd", []*network.Node{a, b}, decomp.Nand2Cover()) // !(ab)
	ic := nw.AddNode("ic", []*network.Node{c}, decomp.InvCover())      // !c
	y := nw.AddNode("y", []*network.Node{nd, ic}, decomp.Nand2Cover()) // !( !(ab) * !c ) = ab + c
	inv := nw.AddNode("yb", []*network.Node{y}, decomp.InvCover())     // !(ab + c) = AOI21
	nw.MarkOutput("o", inv)
	model, err := prob.Compute(nw, nil, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	lib := genlib.Lib2()
	m := newMatcher(lib, false)
	found := false
	for _, match := range m.matchesAt(inv, new(matchScratch)) {
		if match.Cell.Name == "aoi21" {
			found = true
			// Pin binding: pins a,b bind {a,b}, pin c binds c.
			pc := match.Inputs[match.Cell.PinIndex("c")]
			if pc != c {
				t.Errorf("aoi21 pin c bound to %s", pc.Name)
			}
		}
	}
	if !found {
		t.Error("aoi21 not matched on its own subject graph")
	}
	// Full mapping should verify.
	nl, err := Map(context.Background(), nw, model, Options{Objective: AreaDelay, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Verify(model); err != nil {
		t.Fatal(err)
	}
}

// TestXorLeafDagMatch: the structural matcher binds xor2 where the subject
// graph has lib2's xor2 pattern shape, n(n(i(p0),p1),n(i(p1),p0)), and the
// cut matcher finds xor2 over the two inputs of the 4-NAND XOR, a shape no
// xor2 pattern has.
func TestXorLeafDagMatch(t *testing.T) {
	lib := genlib.Lib2()
	xor2 := lib.CellByName("xor2")
	offers := func(ms []Match, want func([]*network.Node) bool) bool {
		return slices.ContainsFunc(ms, func(m Match) bool { return m.Cell == xor2 && want(m.Inputs) })
	}

	// out = !(!(!a·b)·!(!b·a)) = a XOR b.
	nw := network.New("xor-pattern")
	a, b := nw.AddPI("a"), nw.AddPI("b")
	ia := nw.AddNode("ia", []*network.Node{a}, decomp.InvCover())
	ib := nw.AddNode("ib", []*network.Node{b}, decomp.InvCover())
	x := nw.AddNode("x", []*network.Node{ia, b}, decomp.Nand2Cover())
	y := nw.AddNode("y", []*network.Node{ib, a}, decomp.Nand2Cover())
	out := nw.AddNode("out", []*network.Node{x, y}, decomp.Nand2Cover())
	nw.MarkOutput("o", out)
	if !offers(newMatcher(lib, false).matchesAt(out, new(matchScratch)), func(in []*network.Node) bool {
		return slices.Equal(in, []*network.Node{a, b})
	}) {
		t.Error("structural matcher does not bind xor2 to [a b] at the xor2 pattern's root")
	}

	// x = !(a·b); y = !(a·x); z = !(b·x); out = !(y·z) = a XOR b.
	nw = network.New("xor-nand4")
	a, b = nw.AddPI("a"), nw.AddPI("b")
	x = nw.AddNode("x", []*network.Node{a, b}, decomp.Nand2Cover())
	y = nw.AddNode("y", []*network.Node{a, x}, decomp.Nand2Cover())
	z := nw.AddNode("z", []*network.Node{b, x}, decomp.Nand2Cover())
	out = nw.AddNode("out", []*network.Node{y, z}, decomp.Nand2Cover())
	nw.MarkOutput("o", out)
	cm, err := newCutMatcher(context.Background(), nw, Options{Library: lib, Backend: BackendCuts})
	if err != nil {
		t.Fatal(err)
	}
	if !offers(cm.matchesAt(out, nil), func(in []*network.Node) bool {
		return len(in) == 2 && slices.Contains(in, a) && slices.Contains(in, b)
	}) {
		t.Errorf("cut matcher offers %s at the 4-NAND XOR, want xor2 over {a, b}", matchNames(cm.matchesAt(out, nil)))
	}
}

func TestNoMatchWithoutLibraryGates(t *testing.T) {
	sub, model := subject(t, smallBlif)
	if _, err := Map(context.Background(), sub, model, Options{}); err == nil {
		t.Error("nil library accepted")
	}
}

func TestLoadsAndArrivalConsistency(t *testing.T) {
	nl := mapSmall(t, Options{Objective: PowerDelay})
	// Every gate input must carry a positive load (at least the pin cap),
	// and arrivals must be monotone along gate edges.
	for _, g := range nl.Gates {
		for pin, in := range g.Inputs {
			if nl.Load(in) <= 0 {
				t.Errorf("input %s has non-positive load", in.Name)
			}
			edge := g.Cell.Pins[pin].Block + g.Cell.Pins[pin].Drive*nl.Load(g.Root)
			if nl.arrival[g.Root]+1e-9 < nl.arrival[in]+edge {
				t.Errorf("arrival at %s (%.3f) earlier than input %s (%.3f) + edge %.3f",
					g.Root.Name, nl.arrival[g.Root], in.Name, nl.arrival[in], edge)
			}
		}
	}
}

func TestRandomNetworksMapAndVerify(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	lib := genlib.Lib2()
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(r, 4, 6)
		res, err := decomp.Decompose(context.Background(), nw, decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{AreaDelay, PowerDelay} {
			nl, err := Map(context.Background(), res.Network, res.Model, Options{Objective: obj, Library: lib, Relax: relax(0.3)})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, obj, err)
			}
			if err := nl.Verify(res.Model); err != nil {
				t.Fatalf("trial %d %v: %v", trial, obj, err)
			}
		}
	}
}

func TestPowerMethod2(t *testing.T) {
	// Method 2 must produce a valid, verified mapping; Method 1 is more
	// accurate (Section 3.1), so its final power should not be clearly
	// worse than Method 2's.
	m1 := mapSmall(t, Options{Objective: PowerDelay, Relax: relax(0.4)})
	m2 := mapSmall(t, Options{Objective: PowerDelay, Relax: relax(0.4), PowerMethod2: true})
	if len(m2.Gates) == 0 {
		t.Fatal("method 2 mapped nothing")
	}
	if m1.Report.PowerUW > m2.Report.PowerUW*1.25 {
		t.Errorf("Method 1 power %.2f clearly worse than Method 2 %.2f",
			m1.Report.PowerUW, m2.Report.PowerUW)
	}
}

func TestCellCounts(t *testing.T) {
	nl := mapSmall(t, Options{Objective: AreaDelay})
	total := 0
	for _, cc := range nl.CellCounts() {
		total += cc.Count
	}
	if total != len(nl.Gates) {
		t.Errorf("cell counts sum %d != gate count %d", total, len(nl.Gates))
	}
}

func TestWorstSlack(t *testing.T) {
	nl := mapSmall(t, Options{Objective: PowerDelay})
	// With required = report delay, worst slack must be ~0 or positive.
	if ws := nl.WorstSlack(nil); ws < -1e-9 {
		t.Errorf("worst slack %v negative against own delay", ws)
	}
	if ws := nl.WorstSlack(map[string]float64{"y": 0, "z": 0}); ws > 0 {
		t.Errorf("zero required times should give negative slack, got %v", ws)
	}
}

// randomNetwork builds a random multi-level network (no constants).
func randomNetwork(r *rand.Rand, npi, nnodes int) *network.Network {
	nw := network.New("rand")
	var pool []*network.Node
	for i := 0; i < npi; i++ {
		pool = append(pool, nw.AddPI(nw.FreshName("pi")))
	}
	for i := 0; i < nnodes; i++ {
		k := 1 + r.Intn(3)
		var fanins []*network.Node
		seen := map[*network.Node]bool{}
		for len(fanins) < k {
			f := pool[r.Intn(len(pool))]
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		f := sop.NewCover(k)
		for cbi := 0; cbi < 1+r.Intn(2); cbi++ {
			cube := sop.NewCube(k)
			for v := range cube {
				cube[v] = sop.Lit(r.Intn(3))
			}
			if cube.NumLiterals() == 0 {
				cube[0] = sop.Pos
			}
			f.AddCube(cube)
		}
		f.Minimize()
		if f.IsZero() || f.IsOne() {
			f = sop.FromLiteral(k, 0, true)
		}
		pool = append(pool, nw.AddNode(nw.FreshName("n"), fanins, f))
	}
	nw.MarkOutput("o1", pool[len(pool)-1])
	nw.MarkOutput("o2", pool[len(pool)-2])
	return nw
}

func TestFanoutDivision(t *testing.T) {
	sub, model := subject(t, smallBlif)
	lib := genlib.Lib2()
	s := &state{
		opt:   Options{Objective: PowerDelay, Library: lib},
		lib:   lib,
		model: model,
		sub:   sub,
	}
	for _, n := range sub.TopoOrder() {
		div := s.fanoutDiv(n)
		if n.Kind != network.Internal && div != 1 {
			t.Errorf("source %s divided by %v", n.Name, div)
		}
		if n.Kind == network.Internal && len(n.Fanout) > 1 && math.Abs(div-float64(len(n.Fanout))) > 1e-12 {
			t.Errorf("node %s fanout %d divided by %v", n.Name, len(n.Fanout), div)
		}
	}
}

// TestMapRejectsBadEpsilonAndRelax: a NaN or infinite ε, and a NaN,
// infinite or negative relax, are refused with an error naming the
// option. A negative ε still disables ε-pruning, and a zero relax still
// demands the fastest mapping.
func TestMapRejectsBadEpsilonAndRelax(t *testing.T) {
	sub, model := subject(t, smallBlif)
	cases := []struct {
		name  string
		eps   float64
		relax *float64
		want  string // "" when the options are valid
	}{
		{"epsilon NaN", math.NaN(), nil, "epsilon"},
		{"epsilon +Inf", math.Inf(1), nil, "epsilon"},
		{"epsilon -Inf", math.Inf(-1), nil, "epsilon"},
		{"relax NaN", 0, relax(math.NaN()), "relax"},
		{"relax +Inf", 0, relax(math.Inf(1)), "relax"},
		{"relax negative", 0, relax(-2), "relax"},
		{"epsilon negative", -1, nil, ""},
		{"relax zero", 0, relax(0), ""},
	}
	for _, tc := range cases {
		_, err := Map(context.Background(), sub, model, Options{
			Objective: PowerDelay, Library: genlib.Lib2(), Epsilon: tc.eps, Relax: tc.relax,
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

// TestMapRejectsUnknownBackend: a Backend value that names no backend is
// an error naming it, not a silent structural run.
func TestMapRejectsUnknownBackend(t *testing.T) {
	if got := Backend(7).String(); got != "Backend(7)" {
		t.Errorf("Backend(7).String() = %q, want Backend(7)", got)
	}
	sub, model := subject(t, smallBlif)
	for _, b := range []Backend{-1, 3, 7} {
		nl, err := Map(context.Background(), sub, model, Options{Library: genlib.Lib2(), Backend: b})
		if err == nil || !strings.Contains(err.Error(), b.String()) {
			t.Errorf("Map with %s: netlist %v, err %v; want an error naming the backend", b, nl != nil, err)
		}
	}
}

// TestParseBackendRoundTrip: every backend parses back from its -mapper
// spelling, an empty name defaults by LUT arity, and LUT mode is refused
// outside the cuts backend and outside 2..6.
func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendStructural, BackendTree, BackendCuts} {
		if got, err := ParseBackend(b.String(), 0); err != nil || got != b {
			t.Errorf("ParseBackend(%q, 0) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	cases := []struct {
		name string
		lut  int
		want Backend
		ok   bool
	}{
		{"", 0, BackendStructural, true},
		{"", 4, BackendCuts, true},
		{"cuts", 4, BackendCuts, true},
		{"tree", 4, 0, false},
		{"dag", 4, 0, false},
		{"cuts", 7, 0, false},
		{"structural", 0, 0, false},
	}
	for _, tc := range cases {
		got, err := ParseBackend(tc.name, tc.lut)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseBackend(%q, %d) = %v, %v; want %v", tc.name, tc.lut, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseBackend(%q, %d) = %v, want an error", tc.name, tc.lut, got)
		}
	}
}

// TestCurvesIdenticalAcrossWorkers: on every backend, every installed
// curve, down to the input points each curve point chose, is the same at
// two and eight workers as in the sequential walk, and so are the curve
// counters. Each node builds all its candidates in one set whatever the
// pool size, so the candidates generated, kept and pruned, the nodes
// covered and the matches observed per node must match exactly too.
func TestCurvesIdenticalAcrossWorkers(t *testing.T) {
	sub, model := subject(t, smallBlif)
	nets := []subjectNet{{"small", sub, model}}
	for _, name := range []string{"s208", "s344"} {
		b, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sub, model := decomposed(t, b.Build(), decomp.MinPower)
		nets = append(nets, subjectNet{name, sub, model})
	}
	type run struct {
		curves   map[*network.Node][]Point
		counters map[string]int64
	}
	for _, nt := range nets {
		for _, obj := range []Objective{AreaDelay, PowerDelay} {
			for _, backend := range []Backend{BackendStructural, BackendTree, BackendCuts} {
				mapWith := func(workers int) run {
					r := run{curves: map[*network.Node][]Point{}}
					sc := obs.New(obs.Config{})
					_, err := Map(context.Background(), nt.sub, nt.model, Options{
						Objective: obj,
						Library:   genlib.Lib2(),
						Backend:   backend,
						Workers:   workers,
						Obs:       sc,
						CurveAudit: func(n *network.Node, c *Curve) {
							r.curves[n] = slices.Clone(c.Points)
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					snap := sc.Snapshot()
					r.counters = map[string]int64{
						"matches_per_node count": snap.Histograms["mapper.matches_per_node"].Count,
					}
					for _, name := range []string{"curve_points_generated", "curve_points_kept", "curve_points_pruned", "nodes_covered"} {
						r.counters[name] = snap.Counters["mapper."+name]
					}
					return r
				}
				want := mapWith(1)
				for _, w := range []int{2, 8} {
					got := mapWith(w)
					if !reflect.DeepEqual(got.curves, want.curves) {
						t.Errorf("%s %v %v workers=%d: curves differ from the sequential run", nt.name, obj, backend, w)
					}
					if !reflect.DeepEqual(got.counters, want.counters) {
						t.Errorf("%s %v %v workers=%d: counters %v, sequential run %v", nt.name, obj, backend, w, got.counters, want.counters)
					}
				}
			}
		}
	}
}
