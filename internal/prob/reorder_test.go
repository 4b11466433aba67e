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
