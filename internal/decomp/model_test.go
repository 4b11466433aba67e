package decomp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/circuits"
	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/opt"
	"powermap/internal/prob"
)

// TestResultModelIsExactOnSubjectGraph checks the one model Decompose
// grows from the source network. For every node of the subject graph, in
// every strategy with and without exact pricing and strashing, at skewed
// input probabilities:
//   - Result.Model holds a global BDD for it;
//   - that global is the node's cover applied to its fanins' globals, so
//     no held node changed function under the rewrites after it was built;
//   - the node's Prob1 annotation is the model's probability of that global;
//   - a model built afresh on the subject graph agrees with the annotation.
func TestResultModelIsExactOnSubjectGraph(t *testing.T) {
	ctx := context.Background()
	// Nine of the bundled circuits, sequential and combinational, s344's
	// wide BDDs included, keep this near one second; all seventeen pass
	// too, in about three.
	for _, name := range []string{"cm42a", "x2", "alu2", "ex2", "ttt2", "x1", "s208", "s344", "s510"} {
		b, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nw := b.Build()
		if _, err := opt.Optimize(ctx, nw, opt.Options{MaxNodeLiterals: 6}); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(len(name))))
		piProb := make(map[string]float64, len(nw.PIs))
		for _, pi := range nw.PIs {
			piProb[pi.Name] = 0.05 + 0.9*r.Float64()
		}
		for _, strat := range []Strategy{Conventional, MinPower, BoundedMinPower} {
			for _, exact := range []bool{false, true} {
				for _, strash := range []bool{false, true} {
					res, err := Decompose(ctx, nw, Options{
						Strategy: strat, Style: huffman.Static, Exact: exact, Strash: strash, PIProb: piProb,
					})
					if err != nil {
						t.Fatalf("%s %v exact=%v strash=%v: %v", name, strat, exact, strash, err)
					}
					checkModel(t, res, piProb)
					if t.Failed() {
						t.Fatalf("%s %v exact=%v strash=%v", name, strat, exact, strash)
					}
				}
			}
		}
	}
}

func checkModel(t *testing.T, res *Result, piProb map[string]float64) {
	t.Helper()
	m := res.Model
	mgr := m.Manager()
	order := res.Network.TopoOrder()
	annotated := make(map[*network.Node]float64, len(order))
	for _, n := range order {
		g, ok := m.Global(n)
		if !ok {
			t.Errorf("%s has no global BDD", n.Name)
			continue
		}
		if n.Kind == network.Internal {
			inputs := make([]bdd.Ref, len(n.Fanin))
			for i, f := range n.Fanin {
				inputs[i], _ = m.Global(f)
			}
			want, err := mgr.FromCover(n.Func, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if g != want {
				t.Errorf("%s: held global is not its cover over its fanins' globals", n.Name)
			}
		}
		if p := m.Prob1OfRef(g); n.Prob1 != p {
			t.Errorf("%s: annotation %v, model %v", n.Name, n.Prob1, p)
		}
		annotated[n] = n.Prob1
	}
	if _, err := prob.ComputeWith(context.Background(), res.Network, piProb, huffman.Static, bdd.Config{}); err != nil {
		t.Fatal(err)
	}
	for n, p := range annotated {
		if math.Abs(n.Prob1-p) > 1e-12 {
			t.Errorf("%s: shared model %v, fresh model %v", n.Name, p, n.Prob1)
		}
	}
}
