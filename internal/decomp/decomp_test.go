package decomp

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/sop"
	"powermap/internal/verify/equiv"
)

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

const wideAndBlif = `
.model wide
.inputs a b c d e f
.outputs y
.names a b c d e f y
111111 1
.end
`

const sopBlif = `
.model sopnode
.inputs a b c d
.outputs y z
.names a b c d y
11-- 1
--11 1
1--0 1
.names a b z
10 1
01 1
.end
`

// checkSubjectGraph verifies every internal node is NAND2 or INV.
func checkSubjectGraph(t *testing.T, nw *network.Network) {
	t.Helper()
	for _, n := range nw.Nodes {
		if n.Kind != network.Internal {
			continue
		}
		if !IsNand2(n) && !IsInv(n) {
			t.Fatalf("node %s is not NAND2/INV: %v over %d fanins", n.Name, n.Func, len(n.Fanin))
		}
	}
}

func decomposeAll(t *testing.T, text string, opt Options) *Result {
	t.Helper()
	nw := mustParse(t, text)
	res, err := Decompose(context.Background(), nw, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Network.Check(); err != nil {
		t.Fatalf("decomposed network invalid: %v", err)
	}
	checkSubjectGraph(t, res.Network)
	if err := equiv.Equivalent(context.Background(), nw, res.Network, bdd.Config{}); err != nil {
		t.Fatalf("decomposition changed the function: %v", err)
	}
	return res
}

func TestDecomposeWideAndAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{Conventional, MinPower, BoundedMinPower} {
		for _, style := range []huffman.Style{huffman.Static, huffman.DominoP, huffman.DominoN} {
			res := decomposeAll(t, wideAndBlif, Options{Strategy: strat, Style: style})
			// A 6-input AND must decompose into 5 NAND/INV pairs at most:
			// node counts vary, but depth must be sane.
			if res.Depth < 3 {
				t.Errorf("%v/%v: depth %v too small", strat, style, res.Depth)
			}
		}
	}
}

func TestDecomposeSOPNode(t *testing.T) {
	res := decomposeAll(t, sopBlif, Options{Strategy: MinPower, Style: huffman.Static})
	if res.TotalActivity <= 0 {
		t.Error("total activity should be positive")
	}
}

func TestMinPowerBeatsConventionalOnSkewedInputs(t *testing.T) {
	// Strongly skewed probabilities give MINPOWER room to win (Figure 1's
	// argument). Compare total activity for a domino-p AND tree.
	piProb := map[string]float64{"a": 0.9, "b": 0.9, "c": 0.9, "d": 0.1, "e": 0.1, "f": 0.1}
	conv := decomposeAll(t, wideAndBlif, Options{Strategy: Conventional, Style: huffman.DominoP, PIProb: piProb})
	mp := decomposeAll(t, wideAndBlif, Options{Strategy: MinPower, Style: huffman.DominoP, PIProb: piProb})
	if mp.TotalActivity > conv.TotalActivity+1e-9 {
		t.Errorf("minpower %.4f worse than conventional %.4f", mp.TotalActivity, conv.TotalActivity)
	}
}

func TestExactOracleNotWorseOnReconvergent(t *testing.T) {
	// With reconvergent fanins the BDD oracle prices merges exactly.
	text := `
.model reconv
.inputs a b c
.outputs y
.names a b t1
11 1
.names a c t2
11 1
.names t1 t2 c y
111 1
.end
`
	res := decomposeAll(t, text, Options{Strategy: MinPower, Style: huffman.Static, Exact: true})
	// The exact model must still report exact final activities.
	if res.TotalActivity <= 0 {
		t.Error("no activity measured")
	}
}

func TestBoundedReducesDepth(t *testing.T) {
	// Skewed probabilities make MINPOWER build a deep chain over the
	// 6-input AND; the balanced depth, 3, must force it flatter.
	piProb := map[string]float64{"a": 0.05, "b": 0.1, "c": 0.2, "d": 0.4, "e": 0.6, "f": 0.8}
	mp := decomposeAll(t, wideAndBlif, Options{
		Strategy: MinPower, Style: huffman.DominoP, PIProb: piProb,
	})
	bh := decomposeAll(t, wideAndBlif, Options{
		Strategy: BoundedMinPower, Style: huffman.DominoP, PIProb: piProb,
	})
	if mp.Depth <= 3 {
		t.Skipf("minpower depth %v already meets bound; nothing to test", mp.Depth)
	}
	if bh.Depth >= mp.Depth {
		t.Errorf("bounded depth %v not smaller than minpower depth %v", bh.Depth, mp.Depth)
	}
	if bh.Redecompositions == 0 {
		t.Error("bounded pass performed no re-decompositions")
	}
	// Power ordering: bounded sacrifices some activity for depth.
	if bh.TotalActivity < mp.TotalActivity-1e-9 {
		t.Errorf("bounded activity %.4f beats unrestricted %.4f, impossible", bh.TotalActivity, mp.TotalActivity)
	}
}

func TestDecomposeRejectsConstantNodes(t *testing.T) {
	nw := network.New("const")
	a := nw.AddPI("a")
	n := nw.AddNode("n", []*network.Node{a}, sop.One(1))
	nw.MarkOutput("y", n)
	_, err := Decompose(context.Background(), nw, Options{Strategy: MinPower, Style: huffman.Static})
	if err == nil || !strings.Contains(err.Error(), "constant") {
		t.Errorf("constant node not rejected: %v", err)
	}
}

func TestDecomposeLeavesInputNetworkIntact(t *testing.T) {
	nw := mustParse(t, sopBlif)
	before := nw.Stats()
	if _, err := Decompose(context.Background(), nw, Options{Strategy: MinPower, Style: huffman.Static}); err != nil {
		t.Fatal(err)
	}
	after := nw.Stats()
	if before != after {
		t.Errorf("input network mutated: %+v -> %+v", before, after)
	}
}

func TestDecomposeNegativeLiterals(t *testing.T) {
	text := `
.model negs
.inputs a b c
.outputs y
.names a b c y
0-0 1
-10 1
.end
`
	decomposeAll(t, text, Options{Strategy: MinPower, Style: huffman.Static})
}

func TestDecomposeInverterAndWire(t *testing.T) {
	text := `
.model thin
.inputs a b
.outputs y z w
.names a y
0 1
.names b z
1 1
.names a b w
11 1
.end
`
	res := decomposeAll(t, text, Options{Strategy: MinPower, Style: huffman.Static})
	// z is a buffer of b: after sweeping, output z must be driven by b.
	var zDriver *network.Node
	for _, o := range res.Network.Outputs {
		if o.Name == "z" {
			zDriver = o.Driver
		}
	}
	if zDriver == nil || zDriver.Name != "b" {
		t.Errorf("buffer output z driven by %v, want PI b", zDriver)
	}
}

func TestRandomNetworksPreserveFunction(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		nw := randomNetwork(r, 5, 8)
		for _, strat := range []Strategy{Conventional, MinPower} {
			res, err := Decompose(context.Background(), nw, Options{Strategy: strat, Style: huffman.Static})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, strat, err)
			}
			checkSubjectGraph(t, res.Network)
			if err := equiv.Equivalent(context.Background(), nw, res.Network, bdd.Config{}); err != nil {
				t.Fatalf("trial %d %v: function changed: %v", trial, strat, err)
			}
		}
	}
}

func TestTotalActivityIsAndOrLevel(t *testing.T) {
	// TotalActivity is measured on the AND/OR tree level, before the
	// NAND/INV conversion; on the converted graph every AND contributes a
	// complementary NAND+INV pair, so the NAND/INV sum differs (it would
	// be degenerate for domino styles).
	res := decomposeAll(t, wideAndBlif, Options{Strategy: MinPower, Style: huffman.DominoP})
	// A 6-input AND has exactly 5 internal AND2 nodes; for domino-p their
	// activities are their 1-probabilities, each in (0, 0.25] with p=0.5
	// inputs, so the total lies in (0, 1.25].
	if res.TotalActivity <= 0 || res.TotalActivity > 1.25 {
		t.Errorf("TotalActivity %v outside the AND/OR-level range", res.TotalActivity)
	}
	// The NAND/INV-level sum for domino would be exactly 5 (one per AND2
	// pair, summing to 1 each); make sure we did not report that.
	nandSum := 0.0
	for _, n := range res.Network.TopoOrder() {
		if n.Kind == network.Internal {
			nandSum += n.Activity
		}
	}
	if math.Abs(res.TotalActivity-nandSum) < 1e-9 {
		t.Errorf("TotalActivity %v equals the NAND/INV sum; expected AND/OR-level measurement", res.TotalActivity)
	}
}

func TestClassifiers(t *testing.T) {
	nw := network.New("cls")
	a, b := nw.AddPI("a"), nw.AddPI("b")
	and := nw.AddNode("and", []*network.Node{a, b}, And2Cover())
	or := nw.AddNode("or", []*network.Node{a, b}, Or2Cover())
	nand := nw.AddNode("nand", []*network.Node{a, b}, Nand2Cover())
	inv := nw.AddNode("inv", []*network.Node{a}, InvCover())
	buf := nw.AddNode("buf", []*network.Node{a}, BufCover())
	cases := []struct {
		n    *network.Node
		isA  func(*network.Node) bool
		name string
	}{
		{and, IsAnd2, "and2"},
		{or, IsOr2, "or2"},
		{nand, IsNand2, "nand2"},
		{inv, IsInv, "inv"},
		{buf, IsBuffer, "buffer"},
	}
	all := []func(*network.Node) bool{IsAnd2, IsOr2, IsNand2, IsInv, IsBuffer}
	for _, tc := range cases {
		hits := 0
		for _, f := range all {
			if f(tc.n) {
				hits++
			}
		}
		if !tc.isA(tc.n) {
			t.Errorf("%s not classified as itself", tc.name)
		}
		if hits != 1 {
			t.Errorf("%s matches %d classifiers, want exactly 1", tc.name, hits)
		}
	}
	// Sources match nothing.
	for _, f := range all {
		if f(a) {
			t.Error("PI classified as a gate")
		}
	}
}

func TestBoundedDefaultMatchesConventionalDepth(t *testing.T) {
	// With no explicit required times, BoundedMinPower bounds the height
	// increase relative to the conventional (balanced) decomposition.
	piProb := map[string]float64{"a": 0.05, "b": 0.1, "c": 0.2, "d": 0.4, "e": 0.6, "f": 0.8}
	conv := decomposeAll(t, wideAndBlif, Options{Strategy: Conventional, Style: huffman.DominoP, PIProb: piProb})
	bh := decomposeAll(t, wideAndBlif, Options{Strategy: BoundedMinPower, Style: huffman.DominoP, PIProb: piProb})
	if bh.Depth > conv.Depth+1 {
		t.Errorf("bounded depth %v much worse than conventional %v", bh.Depth, conv.Depth)
	}
}

func TestDecomposeExactDominoStyles(t *testing.T) {
	for _, style := range []huffman.Style{huffman.DominoP, huffman.DominoN} {
		decomposeAll(t, sopBlif, Options{Strategy: MinPower, Style: style, Exact: true})
	}
}

func TestBoundedMultiCubeNodes(t *testing.T) {
	// Bounded re-decomposition must handle SOP nodes (AND trees under an
	// OR tree) by splitting the height budget.
	text := `
.model mc
.inputs a b c d e f g h
.outputs y
.names a b c d e f g h y
11111111 1
11------ 1
--11---- 1
----11-- 1
------11 1
.end
`
	nw := mustParse(t, text)
	piProb := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4,
		"e": 0.6, "f": 0.7, "g": 0.8, "h": 0.9}
	res, err := Decompose(context.Background(), nw, Options{
		Strategy: BoundedMinPower,
		Style:    huffman.DominoP,
		PIProb:   piProb,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSubjectGraph(t, res.Network)
	if err := equiv.Equivalent(context.Background(), nw, res.Network, bdd.Config{}); err != nil {
		t.Fatalf("bounded multi-cube changed function: %v", err)
	}
}

func TestDecomposeWithStrash(t *testing.T) {
	res := decomposeAll(t, sopBlif, Options{Strategy: MinPower, Style: huffman.Static, Strash: true})
	noStrash := decomposeAll(t, sopBlif, Options{Strategy: MinPower, Style: huffman.Static})
	if res.Network.Stats().Nodes > noStrash.Network.Stats().Nodes {
		t.Errorf("strash grew the subject graph: %d > %d",
			res.Network.Stats().Nodes, noStrash.Network.Stats().Nodes)
	}
}

func TestDecomposeBadProbability(t *testing.T) {
	nw := mustParse(t, sopBlif)
	_, err := Decompose(context.Background(), nw, Options{Strategy: MinPower, Style: huffman.Static,
		PIProb: map[string]float64{"a": 2}})
	if err == nil {
		t.Error("bad probability accepted")
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
		for c := 0; c < 1+r.Intn(2); c++ {
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
