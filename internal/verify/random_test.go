package verify

import (
	"context"
	"strings"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/network"
	"powermap/internal/verify/equiv"
)

func TestRandomNetworkWellFormed(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := RandConfig{Seed: seed, PIs: 6, Nodes: 14, MaxFanin: 4, Depth: 4, Outputs: 3}
		nw := RandomNetwork("rnd", cfg)
		if err := nw.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := nw.Stats()
		// Stats counts output-reachable nodes only; created nodes outside
		// every output cone may dangle.
		if s.PIs != 6 || len(nw.Nodes) != 14 || s.POs != 3 {
			t.Fatalf("seed %d: %d PI / %d nodes / %d PO, want 6 / 14 / 3", seed, s.PIs, len(nw.Nodes), s.POs)
		}
		for _, n := range nw.Nodes {
			if len(n.Fanin) < 2 || len(n.Fanin) > 4 {
				t.Fatalf("seed %d: node %s has %d fanins", seed, n.Name, len(n.Fanin))
			}
			if n.Func.IsZero() || n.Func.IsOne() {
				t.Fatalf("seed %d: node %s is syntactically constant", seed, n.Name)
			}
		}
	}
}

func TestRandomNetworkDeterministic(t *testing.T) {
	cfg := RandConfig{Seed: 42}
	a, b := RandomNetwork("r", cfg), RandomNetwork("r", cfg)
	var wa, wb strings.Builder
	if err := blif.Write(&wa, a); err != nil {
		t.Fatal(err)
	}
	if err := blif.Write(&wb, b); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Fatal("same seed produced different networks")
	}
	if err := equiv.Equivalent(context.Background(), a, b, bdd.Config{}); err != nil {
		t.Fatalf("same-seed networks not equivalent: %v", err)
	}
	c := RandomNetwork("r", RandConfig{Seed: 43})
	var wc strings.Builder
	if err := blif.Write(&wc, c); err != nil {
		t.Fatal(err)
	}
	if wa.String() == wc.String() {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestRandomNetworkDefaultsAndClamps(t *testing.T) {
	nw := RandomNetwork("d", RandConfig{Seed: 1})
	if s := nw.Stats(); s.PIs != 5 || len(nw.Nodes) != 12 || s.POs != 2 {
		t.Fatalf("defaults: %d PI / %d nodes / %d PO", s.PIs, len(nw.Nodes), s.POs)
	}
	// Depth and outputs clamp to the node count.
	tiny := RandomNetwork("t", RandConfig{Seed: 2, PIs: 3, Nodes: 2, Depth: 9, Outputs: 9})
	if st := tiny.Stats(); len(tiny.Nodes) != 2 || st.POs != 2 {
		t.Fatalf("clamped: %d nodes / %d PO", len(tiny.Nodes), st.POs)
	}
}

func TestRandomNetworkRealizesDepth(t *testing.T) {
	// With one node per level the network must form a chain of the full
	// requested depth.
	nw := RandomNetwork("deep", RandConfig{Seed: 7, PIs: 4, Nodes: 6, Depth: 6, Outputs: 1})
	depth := 0
	level := map[*network.Node]int{}
	for _, n := range nw.TopoOrder() {
		d := 0
		for _, f := range n.Fanin {
			if fd := level[f] + 1; fd > d {
				d = fd
			}
		}
		level[n] = d
		if d > depth {
			depth = d
		}
	}
	if depth != 6 {
		t.Fatalf("depth %d, want 6", depth)
	}
}
