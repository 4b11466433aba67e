package mapper

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/huffman"
	"powermap/internal/network"
)

// and2Subject builds y = INV(NAND(a,b)) — the and2 pattern — with the
// inner NAND given a second consumer so it is a multi-fanout node hidden
// inside the and2 match.
func and2Subject() (*network.Network, *network.Node) {
	nw := network.New("and2")
	a, b := nw.AddPI("a"), nw.AddPI("b")
	nd := nw.AddNode("nd", []*network.Node{a, b}, decomp.Nand2Cover())
	y := nw.AddNode("y", []*network.Node{nd}, decomp.InvCover())
	other := nw.AddNode("other", []*network.Node{nd}, decomp.InvCover())
	nw.MarkOutput("y", y)
	nw.MarkOutput("other", other)
	return nw, y
}

// TestTreeModeExcludesMultiFanoutInterior is the tree/DAG covering
// contract: a match that hides a multi-fanout node inside its cover is
// rejected in tree mode (the DAGON partition never crosses a fanout
// point) and accepted in DAG mode (Section 3.3's fanout-division
// heuristic prices the duplication instead of forbidding it).
func TestTreeModeExcludesMultiFanoutInterior(t *testing.T) {
	lib := genlib.Lib2()
	_, y := and2Subject()

	hasCell := func(ms []Match, name string) bool {
		for _, m := range ms {
			if m.Cell.Name == name {
				return true
			}
		}
		return false
	}
	dag := newMatcher(lib, false).matchesAt(y)
	if !hasCell(dag, "and2") {
		t.Error("DAG mode did not match and2 over the multi-fanout NAND")
	}
	tree := newMatcher(lib, true).matchesAt(y)
	if hasCell(tree, "and2") {
		t.Error("tree mode matched and2 across a multi-fanout interior node")
	}
	// The root-only inverter match must survive in both modes.
	if !hasCell(dag, "inv1") || !hasCell(tree, "inv1") {
		t.Error("inverter match missing at INV root")
	}
}

// TestRootKindIndexEquivalent checks the root-kind buckets and the
// gate-kind pre-check are pure filters: for every node of real subject
// networks, in DAG and tree mode, the matcher returns exactly what
// brute-force binding of every pattern of every cell returns.
func TestRootKindIndexEquivalent(t *testing.T) {
	lib := genlib.Lib2()
	small, _ := subject(t, smallBlif)
	subs := []*network.Network{small}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 6; i++ {
		res, err := decomp.Decompose(context.Background(), randomNetwork(r, 5, 12), decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, res.Network)
	}
	for _, tree := range []bool{false, true} {
		m := newMatcher(lib, tree)
		for _, sub := range subs {
			for _, n := range sub.TopoOrder() {
				if n.IsSource() {
					continue
				}
				got := m.matchesAt(n)
				var want []Match
				for _, cell := range lib.Cells {
					for _, pat := range cell.Patterns {
						all := m.matchRec(pat, n, true, []binding{newBinding(maxPinIndex(pat) + 1)})
						for _, b := range all {
							if !b.complete(cell.NumInputs()) || hasMatch(want, cell, b.pins) {
								continue
							}
							want = append(want, Match{Cell: cell, Inputs: b.pins})
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("tree=%v node %s: index found %d matches, brute force %d", tree, n.Name, len(got), len(want))
				}
				for i := range got {
					if got[i].Cell != want[i].Cell || !slices.Equal(got[i].Inputs, want[i].Inputs) {
						t.Fatalf("tree=%v node %s match %d: index %s, brute force %s",
							tree, n.Name, i, got[i].Cell.Name, want[i].Cell.Name)
					}
				}
			}
		}
	}
}

// TestRootKindIndexSkipsWrongRoot: an INV root must never see nand-rooted
// patterns and vice versa.
func TestRootKindIndexSkipsWrongRoot(t *testing.T) {
	lib := genlib.Lib2()
	_, y := and2Subject() // y is an INV node
	for _, m := range newMatcher(lib, false).matchesAt(y) {
		if m.Cell.Name == "nand2" {
			t.Errorf("nand2 matched at INV root %s", y.Name)
		}
	}
	nd := y.Fanin[0] // the NAND node
	for _, m := range newMatcher(lib, false).matchesAt(nd) {
		if m.Cell.Name == "inv1" {
			t.Errorf("inv1 matched at NAND root %s", nd.Name)
		}
	}
}

// TestMatchDedupKeysOnNodes: BLIF names split only on whitespace, so
// "a,a" is a legal signal name. Bindings must be told apart by the nodes
// they bind, not by joined names: NAND2(a, "a,a") has two distinct nand2
// bindings, one per input order.
func TestMatchDedupKeysOnNodes(t *testing.T) {
	nw := network.New("commas")
	a, aa := nw.AddPI("a"), nw.AddPI("a,a")
	y := nw.AddNode("y", []*network.Node{a, aa}, decomp.Nand2Cover())
	nw.MarkOutput("y", y)
	var got [][]*network.Node
	var names []string
	for _, m := range newMatcher(genlib.Lib2(), false).matchesAt(y) {
		if m.Cell.Name == "nand2" {
			got = append(got, m.Inputs)
			names = append(names, fmt.Sprintf("[%s %s]", m.Inputs[0].Name, m.Inputs[1].Name))
		}
	}
	if len(got) != 2 || got[0][0] != a || got[0][1] != aa || got[1][0] != aa || got[1][1] != a {
		t.Fatalf("nand2 bindings at NAND2(a, a,a) = %v, want [[a a,a] [a,a a]]", names)
	}
}
