package aig

import (
	"context"
	"testing"

	"powermap/internal/blif"
	"powermap/internal/decomp"
	"powermap/internal/huffman"
	"powermap/internal/network"
)

func TestFoldingAndStrash(t *testing.T) {
	g := New()
	a := g.AddPI()
	b := g.AddPI()
	if got := g.And(a, a); got != a {
		t.Fatalf("And(a,a) = %v, want %v", got, a)
	}
	if got := g.And(a, a.Not()); got != ConstFalse {
		t.Fatalf("And(a,~a) = %v, want const0", got)
	}
	if got := g.And(a, ConstTrue); got != a {
		t.Fatalf("And(a,1) = %v, want a", got)
	}
	if got := g.And(ConstFalse, b); got != ConstFalse {
		t.Fatalf("And(0,b) = %v, want const0", got)
	}
	ab := g.And(a, b)
	if ab2 := g.And(b, a); ab2 != ab {
		t.Fatalf("And is not commutative under strash: %v vs %v", ab, ab2)
	}
	if g.Dedup() != 1 {
		t.Fatalf("dedup counter = %d, want 1", g.Dedup())
	}
	if g.NumAnds() != 1 || g.numPIs != 2 || g.Len() != 4 {
		t.Fatalf("unexpected sizes: %d nodes, %d PIs, %d ANDs", g.Len(), g.numPIs, g.NumAnds())
	}
}

func decompose(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := decomp.Decompose(context.Background(), nw, decomp.Options{
		Strategy: decomp.MinPower,
		Style:    huffman.Static,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Network
}

const testBlif = `
.model t
.inputs a b c d
.outputs y z
.names a b c d y
1111 1
.names a b z
00 1
.end
`

func TestFromNetwork(t *testing.T) {
	nw := decompose(t, testBlif)
	s, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	if s.G.numPIs != 4 {
		t.Fatalf("PIs = %d, want 4", s.G.numPIs)
	}
	// Every network node must have a literal and be its own phase's
	// representative or share one created earlier.
	for i, n := range nw.TopoOrder() {
		l, ok := s.Lits[n]
		if !ok {
			t.Fatalf("node %s has no literal", n.Name)
		}
		r := s.Reps[l]
		if r == nil {
			t.Fatalf("literal of %s has no representative", n.Name)
		}
		if s.Topo[r] > i {
			t.Fatalf("representative %s of %s is later in topo order", r.Name, n.Name)
		}
	}
	// y = abcd: the AND cone must strash into 3 AND nodes regardless of
	// the NAND/INV tree shape; z adds one more.
	if s.G.NumAnds() < 4 {
		t.Fatalf("AND nodes = %d, want >= 4", s.G.NumAnds())
	}
}

func TestFromNetworkRejectsNonSubject(t *testing.T) {
	nw, err := blif.ParseString(testBlif)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetwork(nw); err == nil {
		t.Fatal("FromNetwork accepted a raw (undecomposed) network")
	}
}

// TestCutsMatchConeFunctions cross-checks every enumerated cut's truth
// table against direct evaluation of the AIG over all input assignments.
func TestCutsMatchConeFunctions(t *testing.T) {
	nw := decompose(t, testBlif)
	s, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	g := s.G
	cuts := g.EnumerateCuts(4, 8)
	// Evaluate the whole graph for each PI assignment.
	nPI := g.numPIs
	values := make([][]bool, g.Len())
	for v := range values {
		values[v] = make([]bool, 1<<uint(nPI))
	}
	for asg := 0; asg < 1<<uint(nPI); asg++ {
		pi := 0
		for v := uint32(0); int(v) < g.Len(); v++ {
			switch {
			case g.kind[v] == kindPI:
				values[v][asg] = asg>>uint(pi)&1 == 1
				pi++
			case g.kind[v] == kindAnd:
				f0, f1 := g.fanin0[v], g.fanin1[v]
				a := values[f0.Node()][asg] != f0.Neg()
				b := values[f1.Node()][asg] != f1.Neg()
				values[v][asg] = a && b
			}
		}
	}
	checked := 0
	for v := uint32(0); int(v) < g.Len(); v++ {
		if g.kind[v] != kindAnd {
			continue
		}
		for _, c := range cuts[v] {
			tt, err := g.CutTT(v, c.Leaves)
			if err != nil {
				t.Fatalf("node %d cut %v: %v", v, c.Leaves, err)
			}
			for asg := 0; asg < 1<<uint(nPI); asg++ {
				row := 0
				for i, leaf := range c.Leaves {
					if values[leaf][asg] {
						row |= 1 << uint(i)
					}
				}
				if got := tt>>uint(row)&1 == 1; got != values[v][asg] {
					t.Fatalf("node %d cut %v: tt disagrees with simulation at assignment %d", v, c.Leaves, asg)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cuts checked")
	}
}

// TestCutLimitAndDominance checks pruning behavior: cut counts stay within
// the limit and no cut is a strict superset of another.
func TestCutLimitAndDominance(t *testing.T) {
	nw := decompose(t, testBlif)
	s, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 6
	cuts := s.G.EnumerateCuts(4, limit)
	for v := uint32(0); int(v) < s.G.Len(); v++ {
		cs := cuts[v]
		if len(cs) > limit {
			t.Fatalf("node %d: %d cuts exceeds limit %d", v, len(cs), limit)
		}
		if s.G.kind[v] == kindAnd {
			last := cs[len(cs)-1]
			if len(last.Leaves) != 1 || last.Leaves[0] != v {
				t.Fatalf("node %d: trivial cut missing or misplaced: %v", v, cs)
			}
		}
		for i, c := range cs {
			for j, d := range cs {
				if i == j || len(d.Leaves) >= len(c.Leaves) || len(c.Leaves) == 1 {
					continue
				}
				if isSubset(d.Leaves, c.Leaves) {
					t.Fatalf("node %d: cut %v dominated by %v survived", v, c.Leaves, d.Leaves)
				}
			}
		}
	}
}
