package prob

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/sop"
)

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

const andOrBlif = `
.model andor
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
`

func TestComputeBasic(t *testing.T) {
	nw := mustParse(t, andOrBlif)
	m, err := Compute(nw, map[string]float64{"a": 0.5, "b": 0.5, "c": 0.5}, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	tn := nw.NodeByName("t")
	if math.Abs(tn.Prob1-0.25) > 1e-12 {
		t.Errorf("P(t) = %v, want 0.25", tn.Prob1)
	}
	y := nw.NodeByName("y")
	// P(y) = P(t or c) = 0.25 + 0.5 - 0.125 = 0.625.
	if math.Abs(y.Prob1-0.625) > 1e-12 {
		t.Errorf("P(y) = %v, want 0.625", y.Prob1)
	}
	if math.Abs(y.Activity-2*0.625*0.375) > 1e-12 {
		t.Errorf("E(y) = %v, want %v", y.Activity, 2*0.625*0.375)
	}
	_ = m
}

func TestComputeStyles(t *testing.T) {
	nw := mustParse(t, andOrBlif)
	if _, err := Compute(nw, nil, huffman.DominoP); err != nil {
		t.Fatal(err)
	}
	y := nw.NodeByName("y")
	if math.Abs(y.Activity-y.Prob1) > 1e-12 {
		t.Errorf("domino-p activity %v != prob1 %v", y.Activity, y.Prob1)
	}
	if _, err := Compute(nw, nil, huffman.DominoN); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y.Activity-(1-y.Prob1)) > 1e-12 {
		t.Errorf("domino-n activity %v != 1-prob1 %v", y.Activity, 1-y.Prob1)
	}
}

func TestReconvergenceExact(t *testing.T) {
	// y = (a AND b) OR (a AND c): naive independence would mis-estimate;
	// the BDD model must be exact. P = P(a)(P(b)+P(c)-P(b)P(c)).
	text := `
.model reconv
.inputs a b c
.outputs y
.names a b t1
11 1
.names a c t2
11 1
.names t1 t2 y
1- 1
-1 1
.end
`
	nw := mustParse(t, text)
	pa, pb, pc := 0.5, 0.3, 0.7
	_, err := Compute(nw, map[string]float64{"a": pa, "b": pb, "c": pc}, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	want := pa * (pb + pc - pb*pc)
	if got := nw.NodeByName("y").Prob1; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(y) = %v, want %v", got, want)
	}
}

func TestDefaultProbability(t *testing.T) {
	nw := mustParse(t, andOrBlif)
	if _, err := Compute(nw, nil, huffman.Static); err != nil {
		t.Fatal(err)
	}
	for _, pi := range nw.PIs {
		if math.Abs(pi.Prob1-0.5) > 1e-12 {
			t.Errorf("PI %s prob = %v, want 0.5", pi.Name, pi.Prob1)
		}
	}
}

func TestBadProbability(t *testing.T) {
	nw := mustParse(t, andOrBlif)
	for _, p := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := Compute(nw, map[string]float64{"a": p}, huffman.Static); err == nil {
			t.Errorf("probability %v accepted", p)
		}
	}
}

func TestExtend(t *testing.T) {
	ctx := context.Background()
	nw := mustParse(t, andOrBlif)
	m, err := Compute(nw, map[string]float64{"c": 0.3}, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	// Extending an unchanged network builds nothing and leaves every held
	// annotation alone.
	y := nw.NodeByName("y")
	y.Prob1 = -1
	allocs := m.Manager().Stats().Allocs
	if err := m.Extend(ctx, nw); err != nil {
		t.Fatal(err)
	}
	if got := m.Manager().Stats().Allocs; got != allocs {
		t.Errorf("extending an unchanged network allocated %d BDD nodes", got-allocs)
	}
	if y.Prob1 != -1 {
		t.Errorf("Extend re-annotated held node y: Prob1 = %v", y.Prob1)
	}

	// A node added after Compute, and one over it, get globals and
	// annotations once they are reachable.
	a, c := nw.NodeByName("a"), nw.NodeByName("c")
	and := sop.NewCover(2)
	and.AddCube(sop.Cube{sop.Pos, sop.Pos})
	late := nw.AddNode("late", []*network.Node{a, c}, and)
	late2 := nw.AddNode("late2", []*network.Node{late}, sop.FromLiteral(1, 0, false))
	nw.MarkOutput("z", late2)
	if err := m.Extend(ctx, nw); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n    *network.Node
		want float64
	}{{late, 0.15}, {late2, 0.85}} {
		if _, ok := m.Global(tc.n); !ok {
			t.Fatalf("%s has no global BDD after Extend", tc.n.Name)
		}
		if math.Abs(tc.n.Prob1-tc.want) > 1e-12 {
			t.Errorf("%s: Prob1 = %v, want %v", tc.n.Name, tc.n.Prob1, tc.want)
		}
		if want := 2 * tc.want * (1 - tc.want); math.Abs(tc.n.Activity-want) > 1e-12 {
			t.Errorf("%s: Activity = %v, want %v", tc.n.Name, tc.n.Activity, want)
		}
	}
	ga, _ := m.Global(a)
	gc, _ := m.Global(c)
	want, err := m.Manager().FromCover(and, []bdd.Ref{ga, gc})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Global(late); got != want {
		t.Errorf("global of late = %v, want the AND of a and c (%v)", got, want)
	}

	// A primary input the model was not computed over is rejected.
	nw.MarkOutput("w", nw.AddPI("foreign"))
	if err := m.Extend(ctx, nw); err == nil || !strings.Contains(err.Error(), "foreign") {
		t.Errorf("Extend over a foreign primary input: err = %v", err)
	}
}

func TestProbMatchesSimulation(t *testing.T) {
	// Property: BDD probability equals weighted truth-table enumeration on
	// random small networks.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		nw := randomNetwork(r, 4, 5)
		pp := map[string]float64{}
		probs := make([]float64, 4)
		for i, pi := range nw.PIs {
			probs[i] = r.Float64()
			pp[pi.Name] = probs[i]
		}
		if _, err := Compute(nw, pp, huffman.Static); err != nil {
			t.Fatal(err)
		}
		for _, o := range nw.Outputs {
			want := 0.0
			for bits := 0; bits < 16; bits++ {
				assign := map[string]bool{}
				w := 1.0
				for i, pi := range nw.PIs {
					v := bits>>i&1 != 0
					assign[pi.Name] = v
					if v {
						w *= probs[i]
					} else {
						w *= 1 - probs[i]
					}
				}
				if nw.Eval(assign)[o.Name] {
					want += w
				}
			}
			if math.Abs(o.Driver.Prob1-want) > 1e-9 {
				t.Fatalf("output %s: BDD prob %v, simulated %v", o.Name, o.Driver.Prob1, want)
			}
		}
	}
}

func TestModelAccessors(t *testing.T) {
	nw := mustParse(t, andOrBlif)
	m, err := Compute(nw, nil, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	y := nw.NodeByName("y")
	ref, ok := m.Global(y)
	if !ok {
		t.Fatal("no global BDD for y")
	}
	p := m.Prob1OfRef(ref)
	if math.Abs(p-y.Prob1) > 1e-12 {
		t.Errorf("Prob1OfRef = %v, want %v", p, y.Prob1)
	}
	if got := m.ActivityOfRef(ref); math.Abs(got-2*p*(1-p)) > 1e-12 {
		t.Errorf("ActivityOfRef = %v", got)
	}
	// Accessors on an unknown node fail cleanly.
	other := mustParse(t, andOrBlif)
	if _, ok := m.Global(other.NodeByName("y")); ok {
		t.Error("foreign node has a global BDD")
	}
}

func TestPIProbsDeclarationOrder(t *testing.T) {
	// PIs are declared a, b, c but the output cover lists them c, b, a, so
	// the DFS-from-outputs variable order is the reverse of declaration
	// order. Each PI must still carry its own probability, not the one of
	// the PI declared at its variable's position.
	nw := mustParse(t, ".model p\n.inputs a b c\n.outputs y\n.names c b a y\n111 1\n.end\n")
	want := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
	m, err := Compute(nw, want, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	checkPIProbs(t, m, nw, want)
}

func TestDFSOrderCoversUnreachablePIs(t *testing.T) {
	// An unreachable PI must still get a variable level of its own, so a
	// node over it that appears later prices it with its own probability.
	nw := mustParse(t, andOrBlif)
	unused := nw.AddPI("unused")
	want := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.7, "unused": 0.3}
	m, err := Compute(nw, want, huffman.Static)
	if err != nil {
		t.Fatal(err)
	}
	var vr *bdd.VarRangeError
	if _, err := m.Manager().Var(4); !errors.As(err, &vr) || vr.NumVars != 4 {
		t.Errorf("Var(4) = %v, want a manager of 4 variables", err)
	}
	nw.MarkOutput("u", unused)
	if err := m.Extend(context.Background(), nw); err != nil {
		t.Fatal(err)
	}
	checkPIProbs(t, m, nw, want)
}

// checkPIProbs asserts every PI's model probability and annotation.
func checkPIProbs(t *testing.T, m *Model, nw *network.Network, want map[string]float64) {
	t.Helper()
	for _, pi := range nw.PIs {
		ref, ok := m.Global(pi)
		if !ok {
			t.Fatalf("PI %s has no global BDD", pi.Name)
		}
		if got := m.Prob1OfRef(ref); got != want[pi.Name] || pi.Prob1 != want[pi.Name] {
			t.Errorf("PI %s: Prob1 = %v, annotation %v, want %v", pi.Name, got, pi.Prob1, want[pi.Name])
		}
	}
}

// randomNetwork builds a random small network for property tests.
func randomNetwork(r *rand.Rand, npi, nnodes int) *network.Network {
	nw := network.New("rand")
	pool := make([]*network.Node, 0, npi+nnodes)
	for i := 0; i < npi; i++ {
		pool = append(pool, nw.AddPI(nw.FreshName("pi")))
	}
	for i := 0; i < nnodes; i++ {
		k := 1 + r.Intn(3)
		fanins := make([]*network.Node, 0, k)
		seen := map[*network.Node]bool{}
		for len(fanins) < k {
			f := pool[r.Intn(len(pool))]
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		f := sop.NewCover(len(fanins))
		for c := 0; c < 1+r.Intn(2); c++ {
			cube := sop.NewCube(len(fanins))
			for v := range cube {
				cube[v] = sop.Lit(r.Intn(3))
			}
			f.AddCube(cube)
		}
		f.Minimize()
		if f.IsZero() {
			f = sop.FromLiteral(len(fanins), 0, true)
		}
		pool = append(pool, nw.AddNode(nw.FreshName("n"), fanins, f))
	}
	nw.MarkOutput("out", pool[len(pool)-1])
	return nw
}
