package prob_test

import (
	"context"
	"math"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/circuits"
	"powermap/internal/huffman"
	"powermap/internal/prob"
	"powermap/internal/verify/equiv"
)

// reorderCfg uses thresholds low enough that GC and sifting actually fire
// on benchmark-sized circuits, so the invariance claim is exercised for
// real and not vacuously (with default thresholds none of the suite
// circuits ever trigger a reorder).
var reorderCfg = bdd.Config{GCThreshold: 256, Reorder: true, ReorderThreshold: 256}

// TestReorderInvariance proves dynamic reordering is semantics-free: for
// every suite benchmark, signal probabilities computed with sifting on
// must match the fixed-order values exactly (to float tolerance), and the
// reordering manager must still prove the circuit equivalent to itself
// under the verification oracle.
func TestReorderInvariance(t *testing.T) {
	ctx := context.Background()
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			base := b.Build()
			if _, err := prob.ComputeWith(ctx, base, nil, huffman.Static, bdd.Config{}); err != nil {
				t.Fatalf("fixed-order compute: %v", err)
			}
			sifted := b.Build()
			model, err := prob.ComputeWith(ctx, sifted, nil, huffman.Static, reorderCfg)
			if err != nil {
				t.Fatalf("reordered compute: %v", err)
			}
			want := map[string][2]float64{}
			for _, n := range base.TopoOrder() {
				want[n.Name] = [2]float64{n.Prob1, n.Activity}
			}
			for _, n := range sifted.TopoOrder() {
				w, ok := want[n.Name]
				if !ok {
					t.Fatalf("node %s only exists in the reordered build", n.Name)
				}
				if math.Abs(n.Prob1-w[0]) > 1e-12 || math.Abs(n.Activity-w[1]) > 1e-12 {
					t.Errorf("node %s drifted under reordering: P(1) %.15f vs %.15f, E %.15f vs %.15f",
						n.Name, n.Prob1, w[0], n.Activity, w[1])
				}
			}
			st := model.Manager().Stats()
			t.Logf("%s: peak %d live nodes, %d gc runs, %d reorder runs (%d swaps)",
				b.Name, st.PeakLive, st.GCRuns, st.ReorderRuns, st.ReorderSwaps)
			if err := equiv.Equivalent(ctx, base, sifted, reorderCfg); err != nil {
				t.Errorf("oracle rejects self-equivalence under reordering: %v", err)
			}
		})
	}
}

// TestWideWorkload checks that sifting pays on s344, the suite circuit
// whose DFS variable order is measurably improvable: built twice under
// 256-node GC thresholds, once in the fixed order and once with sifting,
// GC and reordering both fire and the peak live-node count falls (2137
// to 1376).
func TestWideWorkload(t *testing.T) {
	ctx := context.Background()
	b, err := circuits.ByName("s344")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg bdd.Config) bdd.Stats {
		t.Helper()
		model, err := prob.ComputeWith(ctx, b.Build(), nil, huffman.Static, cfg)
		if err != nil {
			t.Fatalf("compute (reorder=%v): %v", cfg.Reorder, err)
		}
		return model.Manager().Stats()
	}
	fixed := run(bdd.Config{GCThreshold: 256})
	sifted := run(reorderCfg)
	t.Logf("%s: peak %d live nodes fixed order, %d sifted (%d reorder runs, %d swaps)",
		b.Name, fixed.PeakLive, sifted.PeakLive, sifted.ReorderRuns, sifted.ReorderSwaps)
	if fixed.PeakLive <= 0 || sifted.PeakLive <= 0 {
		t.Fatalf("peaks not recorded: fixed %d, sifted %d", fixed.PeakLive, sifted.PeakLive)
	}
	if sifted.PeakLive >= fixed.PeakLive {
		t.Errorf("sifting did not lower peak live nodes: %d fixed order vs %d sifted", fixed.PeakLive, sifted.PeakLive)
	}
	if fixed.GCRuns == 0 {
		t.Errorf("fixed-order build never triggered GC: %+v", fixed)
	}
	if sifted.ReorderRuns == 0 {
		t.Errorf("sifted build never triggered reordering: %+v", sifted)
	}
}

// BenchmarkCompute times the BDD kernel on s344's global build: once in
// the fixed DFS order and once with sifting, both under TestWideWorkload's
// 256-node GC and reorder thresholds, so collection and reordering run.
func BenchmarkCompute(b *testing.B) {
	bench, err := circuits.ByName("s344")
	if err != nil {
		b.Fatal(err)
	}
	nw := bench.Build()
	for _, c := range []struct {
		name string
		cfg  bdd.Config
	}{{"fixed", bdd.Config{GCThreshold: 256}}, {"sifted", reorderCfg}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model, err := prob.ComputeWith(context.Background(), nw, nil, huffman.Static, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(model.Manager().Stats().PeakLive), "peak-nodes")
			}
		})
	}
}
