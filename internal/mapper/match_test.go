package mapper

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"powermap/internal/circuits"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/network"
)

// raceEnabled reports whether the race detector is on (race_test.go).
var raceEnabled bool

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

// TestTreeMatcherExcludesMultiFanoutInterior is the tree/DAG covering
// contract: a match that hides a multi-fanout node inside its cover is
// rejected in tree mode (the DAGON partition never crosses a fanout
// point) and accepted in DAG mode (Section 3.3's fanout-division
// heuristic prices the duplication instead of forbidding it).
func TestTreeMatcherExcludesMultiFanoutInterior(t *testing.T) {
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
	dag := newMatcher(lib, false).matchesAt(y, new(matchScratch))
	if !hasCell(dag, "and2") {
		t.Error("DAG mode did not match and2 over the multi-fanout NAND")
	}
	tree := newMatcher(lib, true).matchesAt(y, new(matchScratch))
	if hasCell(tree, "and2") {
		t.Error("tree mode matched and2 across a multi-fanout interior node")
	}
	// The root-only inverter match must survive in both modes.
	if !hasCell(dag, "inv1") || !hasCell(tree, "inv1") {
		t.Error("inverter match missing at INV root")
	}
}

// binding maps cell pins to subject nodes in matchesAtReference. Patterns
// may be leaf-DAGs (e.g. XOR references each pin twice), so a pin can be
// bound repeatedly and must bind consistently.
type binding struct {
	pins []*network.Node
}

func newBinding(n int) binding { return binding{pins: make([]*network.Node, n)} }

func (b binding) clone() binding {
	return binding{pins: append([]*network.Node(nil), b.pins...)}
}

func (b binding) bind(pin int, node *network.Node) (binding, bool) {
	if b.pins[pin] == node {
		return b, true
	}
	if b.pins[pin] != nil {
		return binding{}, false
	}
	nb := b.clone()
	nb.pins[pin] = node
	return nb, true
}

// matchesAtReference is the structural matcher before rows in reused
// scratch, the root-kind index and the gate-kind pre-check: every pattern
// of every cell, each binding its own slice, deduplicated per NAND and
// then per (cell, bound nodes).
func matchesAtReference(m *matcher, lib *genlib.Library, n *network.Node) []Match {
	if n.Kind != network.Internal {
		return nil
	}
	var out []Match
	for _, cell := range lib.Cells {
		for _, pat := range cell.Patterns {
			for _, b := range matchPatternReference(m, pat, n) {
				if !complete(b.pins, cell.NumInputs()) || slices.ContainsFunc(out, func(o Match) bool {
					return o.Cell == cell && slices.Equal(o.Inputs, b.pins)
				}) {
					continue
				}
				out = append(out, Match{Cell: cell, Inputs: b.pins})
			}
		}
	}
	return out
}

// matchPatternReference returns all bindings under which pattern p
// matches the subject cone rooted at n.
func matchPatternReference(m *matcher, p *genlib.Pattern, n *network.Node) []binding {
	return matchRecReference(m, p, n, true, []binding{newBinding(maxPinIndex(p) + 1)})
}

// matchRecReference threads a set of partial bindings through the
// pattern.
func matchRecReference(m *matcher, p *genlib.Pattern, n *network.Node, root bool, partial []binding) []binding {
	if len(partial) == 0 {
		return nil
	}
	switch p.Kind {
	case genlib.PatLeaf:
		var out []binding
		for _, b := range partial {
			if nb, ok := b.bind(p.Pin, n); ok {
				out = append(out, nb)
			}
		}
		return out
	case genlib.PatInv:
		if !decomp.IsInv(n) || !m.interiorOK(n, root) {
			return nil
		}
		return matchRecReference(m, p.L, n.Fanin[0], false, partial)
	default: // PatNand
		if !decomp.IsNand2(n) || !m.interiorOK(n, root) {
			return nil
		}
		a, b := n.Fanin[0], n.Fanin[1]
		var out []binding
		// Both input orders: NAND is commutative.
		left := matchRecReference(m, p.L, a, false, partial)
		out = append(out, matchRecReference(m, p.R, b, false, left)...)
		if a != b {
			left = matchRecReference(m, p.L, b, false, partial)
			out = append(out, matchRecReference(m, p.R, a, false, left)...)
		}
		return dedupeBindings(out)
	}
}

// dedupeBindings drops bindings that bind the same nodes as an earlier
// one, keeping first-occurrence order.
func dedupeBindings(bs []binding) []binding {
	out := bs[:0]
	for _, b := range bs {
		if !slices.ContainsFunc(out, func(o binding) bool { return slices.Equal(o.pins, b.pins) }) {
			out = append(out, b)
		}
	}
	return out
}

// checkMatchesAgainstReference compares the matcher built over lib with
// matchesAtReference at every internal node of sub: each pattern's
// binding list, in order, and the node's match list (order, Cell,
// Inputs). It returns the number of match lists compared.
func checkMatchesAgainstReference(t *testing.T, label string, m *matcher, lib *genlib.Library, sub *network.Network) int {
	t.Helper()
	sc := new(matchScratch)
	lists := 0
	for _, n := range sub.TopoOrder() {
		if n.IsSource() {
			continue
		}
		for _, bucket := range [][]patEntry{m.invRooted, m.nandRooted} {
			for i := range bucket {
				e := &bucket[i]
				sc.rows = sc.rows[:0]
				lo, hi := m.bindings(sc, e, n)
				var got [][]*network.Node
				for _, r := range sc.ids[lo:hi] {
					got = append(got, sc.rows[r:int(r)+e.width])
				}
				var want [][]*network.Node
				for _, b := range matchPatternReference(m, e.pat, n) {
					want = append(want, b.pins)
				}
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s: node %s, %s pattern %s: bindings %s, reference %s",
						label, n.Name, e.cell.Name, e.pat, bindingNames(got), bindingNames(want))
				}
			}
		}
		got, want := m.matchesAt(n, sc), matchesAtReference(m, lib, n)
		if !slices.EqualFunc(got, want, func(a, b Match) bool {
			return a.Cell == b.Cell && slices.Equal(a.Inputs, b.Inputs) && a.Class == b.Class
		}) {
			t.Fatalf("%s: node %s: matches %s, reference %s", label, n.Name, matchNames(got), matchNames(want))
		}
		lists++
	}
	return lists
}

func bindingNames(bs [][]*network.Node) string {
	var parts []string
	for _, b := range bs {
		var names []string
		for _, n := range b {
			name := "_"
			if n != nil {
				name = n.Name
			}
			names = append(names, name)
		}
		parts = append(parts, "["+strings.Join(names, " ")+"]")
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func matchNames(ms []Match) string {
	var parts []string
	for _, m := range ms {
		parts = append(parts, m.Cell.Name+bindingNames([][]*network.Node{m.Inputs}))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sharedLeafSubject builds a subject graph with the structures random
// decompositions rarely produce: an XOR leaf-DAG (a NAND tree that binds
// each input twice) and a NAND whose two inputs are one node.
func sharedLeafSubject() *network.Network {
	nw := network.New("shared")
	a, b := nw.AddPI("a"), nw.AddPI("b")
	x := nw.AddNode("x", []*network.Node{a, b}, decomp.Nand2Cover())
	y := nw.AddNode("y", []*network.Node{a, x}, decomp.Nand2Cover())
	z := nw.AddNode("z", []*network.Node{b, x}, decomp.Nand2Cover())
	xor := nw.AddNode("xor", []*network.Node{y, z}, decomp.Nand2Cover())
	sq := nw.AddNode("sq", []*network.Node{xor, xor}, decomp.Nand2Cover())
	out := nw.AddNode("out", []*network.Node{sq}, decomp.InvCover())
	nw.MarkOutput("o", out)
	nw.MarkOutput("x", x)
	return nw
}

// TestRootKindIndexEquivalent checks that the root-kind buckets and the
// gate-kind pre-check are pure filters and that enumerating bindings as
// rows in reused scratch is exact: at every node of the bundled circuits
// (conventional and MINPOWER decompositions) and of random and
// hand-built networks, in DAG and tree mode, each pattern's bindings and
// the node's match list equal those of matchesAtReference, in order.
func TestRootKindIndexEquivalent(t *testing.T) {
	type net struct {
		name string
		sub  *network.Network
	}
	small, _ := subject(t, smallBlif)
	and2, _ := and2Subject()
	nets := []net{{"small", small}, {"and2", and2}, {"shared", sharedLeafSubject()}}
	for _, strategy := range []decomp.Strategy{decomp.Conventional, decomp.MinPower} {
		for _, b := range circuits.Suite() {
			sub, _ := decomposed(t, b.Build(), strategy)
			nets = append(nets, net{b.Name + "-" + strategy.String(), sub})
		}
		for seed := int64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("random-%d", seed)
			sub, _ := decomposed(t, circuits.Random(name, seed, 5+int(seed%3), 2+int(seed%3), 10+3*int(seed)), strategy)
			nets = append(nets, net{name + "-" + strategy.String(), sub})
		}
	}
	lib, lists := genlib.Lib2(), 0
	for _, tree := range []bool{false, true} {
		m := newMatcher(lib, tree)
		for _, nt := range nets {
			lists += checkMatchesAgainstReference(t, fmt.Sprintf("%s tree=%v", nt.name, tree), m, lib, nt.sub)
		}
	}
	t.Logf("%d match lists on %d subject networks match the reference", lists, len(nets))
}

// TestMatchesAtAllocs: with its scratch pooled in the candidate set, as
// curveAt takes it, matchesAt allocates at most a node's []Match and the
// one arena its Inputs are cut from.
func TestMatchesAtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random")
	}
	b, err := circuits.ByName("s344")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := decomposed(t, b.Build(), decomp.MinPower)
	m := newMatcher(genlib.Lib2(), false)
	nodes := 0
	for _, n := range sub.TopoOrder() {
		if n.IsSource() {
			continue
		}
		allocs := testing.AllocsPerRun(3, func() {
			cs := getCandidateSet()
			m.matchesAt(n, &cs.match)
			cs.release()
		})
		if allocs > 2 {
			t.Errorf("matchesAt(%s) made %v allocations, want at most 2", n.Name, allocs)
		}
		nodes++
	}
	if nodes == 0 {
		t.Fatal("s344 has no subject nodes")
	}
}

// TestRootKindIndexSkipsWrongRoot: an INV root must never see nand-rooted
// patterns and vice versa.
func TestRootKindIndexSkipsWrongRoot(t *testing.T) {
	lib := genlib.Lib2()
	_, y := and2Subject() // y is an INV node
	for _, m := range newMatcher(lib, false).matchesAt(y, new(matchScratch)) {
		if m.Cell.Name == "nand2" {
			t.Errorf("nand2 matched at INV root %s", y.Name)
		}
	}
	nd := y.Fanin[0] // the NAND node
	for _, m := range newMatcher(lib, false).matchesAt(nd, new(matchScratch)) {
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
	for _, m := range newMatcher(genlib.Lib2(), false).matchesAt(y, new(matchScratch)) {
		if m.Cell.Name == "nand2" {
			got = append(got, m.Inputs)
			names = append(names, fmt.Sprintf("[%s %s]", m.Inputs[0].Name, m.Inputs[1].Name))
		}
	}
	if len(got) != 2 || got[0][0] != a || got[0][1] != aa || got[1][0] != aa || got[1][1] != a {
		t.Fatalf("nand2 bindings at NAND2(a, a,a) = %v, want [[a a,a] [a,a a]]", names)
	}
}
