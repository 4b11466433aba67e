// Cross-engine bit-identity on realistic structures. This is an external
// test package because it draws subjects from internal/circuits and
// internal/verify, which themselves (transitively) depend on sim.
package sim_test

import (
	"context"
	"fmt"
	"testing"

	"powermap/internal/circuits"
	"powermap/internal/network"
	"powermap/internal/sim"
	"powermap/internal/verify"
)

// subjects yields the bundled benchmark circuits plus seeded random
// networks: wide fanin, shared fanout, constant collapses — the shapes a
// four-node fixture cannot cover.
func subjects(t *testing.T) map[string]*network.Network {
	t.Helper()
	out := map[string]*network.Network{}
	for _, name := range []string{"cm42a", "x2"} {
		b, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b.Build()
	}
	for _, seed := range []int64{3, 11} {
		name := fmt.Sprintf("rand%d", seed)
		out[name] = verify.RandomNetwork(name, verify.RandConfig{
			Seed: seed, PIs: 8, Nodes: 25, MaxFanin: 4, Depth: 5, Outputs: 3,
		})
	}
	return out
}

// TestCrossEngineBitIdentity is the PR's headline property: on every
// subject, the bit-parallel engine fed the exact same vector transcript as
// the scalar engine produces bit-identical one/toggle counts — at an odd
// vector count so the word-tail mask is always live.
func TestCrossEngineBitIdentity(t *testing.T) {
	for name, nw := range subjects(t) {
		t.Run(name, func(t *testing.T) {
			pp := map[string]float64{}
			for i, pi := range nw.PINames() {
				pp[pi] = 0.2 + 0.05*float64(i%13)
			}
			const vectors, seed = 777, 19
			want, err := sim.ActivitiesFrom(nw, sim.IndependentSource(nw, pp, seed), vectors)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.ActivitiesBitwiseFrom(nw, sim.PackVectors(nw, sim.IndependentSource(nw, pp, seed)), vectors)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nw.TopoOrder() {
				w, g := want[n], got[n]
				if w.Ones != g.Ones || w.Toggles != g.Toggles {
					t.Errorf("node %s: scalar (ones=%d toggles=%d) vs bitwise (ones=%d toggles=%d)",
						n.Name, w.Ones, w.Toggles, g.Ones, g.Toggles)
				}
			}
		})
	}
}

// BenchmarkSampling times the scalar oracle against the bit-parallel
// engine on one worker over the same circuits and vector budget; the
// README's speedup table is regenerated from it with
//
//	go test -run '^$' -bench '^BenchmarkSampling$' -count 3 ./internal/sim/
func BenchmarkSampling(b *testing.B) {
	const vectors = 1 << 16
	for _, name := range []string{"cm42a", "x2", "s344"} {
		c, err := circuits.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		nw := c.Build()
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.ActivitiesFrom(nw, sim.IndependentSource(nw, nil, 1), vectors); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/bitwise", func(b *testing.B) {
			var res *sim.BitwiseResult
			for i := 0; i < b.N; i++ {
				if res, err = sim.ActivitiesBitwise(context.Background(), nw, nil, sim.BitwiseOptions{
					Vectors: vectors, Seed: 1, Workers: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MaxActivityCI, "max_ci")
		})
	}
}
