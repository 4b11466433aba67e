package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"powermap/internal/blif"
	"powermap/internal/network"
)

const testBlif = `
.model simtest
.inputs a b c d
.outputs y z
.names a b t1
11 1
.names t1 c t2
1- 1
-1 1
.names t2 d y
10 1
01 1
.names a c z
11 1
.end
`

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// IndependentSource returns a VectorSource with independent inputs:
// P(pi=1) from piProb, defaulting to 0.5.
func IndependentSource(nw *network.Network, piProb map[string]float64, seed int64) VectorSource {
	r := rand.New(rand.NewSource(seed))
	return func(dst map[string]bool) {
		for _, pi := range nw.PIs {
			p, ok := piProb[pi.Name]
			if !ok {
				p = 0.5
			}
			dst[pi.Name] = r.Float64() < p
		}
	}
}

// ActivitiesFrom is the scalar reference engine: it estimates zero-delay
// signal probabilities and toggle activities for every reachable node by
// simulating one map-based vector at a time from src. It is the oracle of
// the cross-engine tests, which demand bit-identical counts from the
// bit-parallel engine fed the same transcript through PackVectors.
func ActivitiesFrom(nw *network.Network, src VectorSource, vectors int) (map[*network.Node]Estimate, error) {
	if vectors <= 0 {
		return nil, fmt.Errorf("sim: need a positive vector count, got %d", vectors)
	}
	order := nw.TopoOrder()
	ones := make(map[*network.Node]int)
	toggles := make(map[*network.Node]int)
	prev := make(map[*network.Node]bool)
	cur := make(map[*network.Node]bool)
	named := make(map[string]bool, len(nw.PIs))
	draw := func(dst map[*network.Node]bool) {
		src(named)
		for _, n := range order {
			switch {
			case n.Kind == network.PI:
				dst[n] = named[n.Name]
			default:
				assign := make([]bool, len(n.Fanin))
				for i, f := range n.Fanin {
					assign[i] = dst[f]
				}
				dst[n] = n.Func.Eval(assign)
			}
		}
	}
	draw(prev)
	for v := 0; v < vectors; v++ {
		draw(cur)
		for _, n := range order {
			if cur[n] {
				ones[n]++
			}
			if cur[n] != prev[n] {
				toggles[n]++
			}
		}
		prev, cur = cur, prev
	}
	out := make(map[*network.Node]Estimate, len(order))
	for _, n := range order {
		out[n] = Estimate{
			Prob1:    float64(ones[n]) / float64(vectors),
			Activity: float64(toggles[n]) / float64(vectors),
			Ones:     int64(ones[n]),
			Toggles:  int64(toggles[n]),
			Vectors:  vectors,
		}
	}
	return out, nil
}
