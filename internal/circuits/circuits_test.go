package circuits

import (
	"math"
	"math/rand"
	"testing"

	"powermap/internal/huffman"
	"powermap/internal/prob"
)

func TestSuiteBuildsValidNetworks(t *testing.T) {
	for _, b := range Suite() {
		nw := b.Build()
		if err := nw.Check(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		s := nw.Stats()
		if s.Nodes == 0 || s.POs == 0 || s.PIs == 0 {
			t.Errorf("%s: degenerate stats %+v", b.Name, s)
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, b := range Suite() {
		a, c := b.Build(), b.Build()
		sa, sc := a.Stats(), c.Stats()
		if sa != sc {
			t.Errorf("%s: stats differ between builds: %+v vs %+v", b.Name, sa, sc)
			continue
		}
		// Spot-check equivalence on random vectors (full equivalence is
		// covered by the generator being a pure function of the seed).
		for trial := 0; trial < 30; trial++ {
			assign := map[string]bool{}
			for _, pi := range a.PINames() {
				assign[pi] = r.Intn(2) == 1
			}
			oa, oc := a.Eval(assign), c.Eval(assign)
			for name, v := range oa {
				if oc[name] != v {
					t.Fatalf("%s: builds diverge on output %s", b.Name, name)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("cm42a")
	if err != nil || b.Name != "cm42a" {
		t.Fatalf("ByName(cm42a) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestDecoder10IsExactBCD(t *testing.T) {
	nw := Decoder10()
	for v := 0; v < 16; v++ {
		assign := map[string]bool{}
		for b := 0; b < 4; b++ {
			assign[nameAB(b)] = v>>b&1 == 1
		}
		out := nw.Eval(assign)
		for d := 0; d < 10; d++ {
			want := v == d
			if out[nameD(d)] != want {
				t.Errorf("input %d: d%d = %v, want %v", v, d, out[nameD(d)], want)
			}
		}
	}
}

func nameAB(b int) string { return "a" + string(rune('0'+b)) }
func nameD(d int) string  { return "d" + string(rune('0'+d)) }

func TestALUAdds(t *testing.T) {
	nw := ALU(4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			assign := map[string]bool{"cin": false, "op0": false, "op1": false}
			for i := 0; i < 4; i++ {
				assign["a"+string(rune('0'+i))] = a>>i&1 == 1
				assign["b"+string(rune('0'+i))] = b>>i&1 == 1
			}
			out := nw.Eval(assign)
			sum := a + b
			for i := 0; i < 4; i++ {
				if out["r"+string(rune('0'+i))] != (sum>>i&1 == 1) {
					t.Fatalf("add %d+%d bit %d wrong", a, b, i)
				}
			}
			if out["cout"] != (sum >= 16) {
				t.Fatalf("add %d+%d carry wrong", a, b)
			}
		}
	}
}

func TestALULogicOps(t *testing.T) {
	nw := ALU(4)
	cases := []struct {
		op0, op1 bool
		f        func(a, b int) int
	}{
		{true, false, func(a, b int) int { return a & b }},
		{false, true, func(a, b int) int { return a | b }},
		{true, true, func(a, b int) int { return a ^ b }},
	}
	for _, tc := range cases {
		for _, pair := range [][2]int{{5, 3}, {12, 10}, {15, 0}, {7, 7}} {
			a, b := pair[0], pair[1]
			assign := map[string]bool{"cin": false, "op0": tc.op0, "op1": tc.op1}
			for i := 0; i < 4; i++ {
				assign["a"+string(rune('0'+i))] = a>>i&1 == 1
				assign["b"+string(rune('0'+i))] = b>>i&1 == 1
			}
			out := nw.Eval(assign)
			want := tc.f(a, b)
			for i := 0; i < 4; i++ {
				if out["r"+string(rune('0'+i))] != (want>>i&1 == 1) {
					t.Fatalf("op(%v,%v) %d,%d bit %d wrong", tc.op0, tc.op1, a, b, i)
				}
			}
		}
	}
}

func TestFigure1Probabilities(t *testing.T) {
	nw, probs := Figure1()
	if _, err := prob.Compute(nw, probs, huffman.DominoP); err != nil {
		t.Fatal(err)
	}
	y := nw.NodeByName("y")
	want := 0.3 * 0.4 * 0.7 * 0.5
	if math.Abs(y.Prob1-want) > 1e-12 {
		t.Errorf("P(y) = %v, want %v", y.Prob1, want)
	}
}

func TestRandomRespectsInterface(t *testing.T) {
	nw := Random("t", 7, 12, 9, 50)
	s := nw.Stats()
	if s.PIs > 12 || s.POs != 9 {
		t.Errorf("interface %+v", s)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
}
