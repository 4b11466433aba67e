// Package mapper implements the paper's power-efficient technology mapping
// (Section 3): tree covering of a NAND2/INV subject graph with library
// gates, driven by per-node power-delay (or area-delay) curves of
// non-inferior points, with a postorder curve-construction pass and a
// preorder gate-selection pass that recalculates timing as actual loads
// replace the unknown-load default.
package mapper

import (
	"slices"

	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/network"
)

// Match is one way a library cell can cover the cone rooted at a subject
// node: Inputs[i] is the subject node bound to cell pin i (inputs(n,g) in
// the paper's terminology).
type Match struct {
	Cell   *genlib.Cell
	Inputs []*network.Node
	// Covered counts the subject nodes hidden inside the match (the
	// merged(n,g) set), used for diagnostics and ablations.
	Covered int
	// Class is the NPN class key of the matched function when the match
	// came from the cut backend ("" for structural matches); it flows to
	// the map.site journal event of the selected gate.
	Class string
}

// matchSource enumerates candidate matches per subject node. The
// structural matcher computes them on demand; the cut backend returns
// tables precomputed on the coordinator. Implementations must be safe for
// concurrent matchesAt calls and deterministic: same node, same slice.
type matchSource interface {
	matchesAt(n *network.Node) []Match
}

// patEntry is one compiled pattern with its owning cell, as stored in the
// matcher's root-kind index.
type patEntry struct {
	cell *genlib.Cell
	pat  *genlib.Pattern
}

// matcher enumerates structural matches of library patterns on the subject
// graph.
type matcher struct {
	lib *genlib.Library
	// treeMode forbids matches that hide a multi-fanout node inside a
	// cover (strict DAGON-style tree partitioning).
	treeMode bool
	// Patterns indexed by root kind: a pattern can only match at a node
	// whose gate kind equals its root's, so matchesAt walks one bucket
	// instead of every pattern of every cell. Bucket order preserves the
	// library's (cell, pattern) enumeration order, keeping match order —
	// and therefore stable-sort tie-breaking downstream — unchanged.
	invRooted  []patEntry
	nandRooted []patEntry
}

// newMatcher builds the structural matcher and its root-kind pattern
// index. Compiled patterns are always INV- or NAND-rooted (bare-leaf wire
// patterns are skipped at library load), so two buckets cover the library.
func newMatcher(lib *genlib.Library, treeMode bool) *matcher {
	m := &matcher{lib: lib, treeMode: treeMode}
	for _, cell := range lib.Cells {
		for _, pat := range cell.Patterns {
			switch pat.Kind {
			case genlib.PatInv:
				m.invRooted = append(m.invRooted, patEntry{cell, pat})
			case genlib.PatNand:
				m.nandRooted = append(m.nandRooted, patEntry{cell, pat})
			}
		}
	}
	return m
}

// matchesAt enumerates all matches of all library cells at node n.
// Matches are deduplicated by (cell, bound nodes), keeping the first
// occurrence.
func (m *matcher) matchesAt(n *network.Node) []Match {
	if n.Kind != network.Internal {
		return nil
	}
	var entries []patEntry
	switch {
	case decomp.IsInv(n):
		entries = m.invRooted
	case decomp.IsNand2(n):
		entries = m.nandRooted
	}
	var out []Match
	for _, e := range entries {
		bindings := m.matchPattern(e.pat, n, true)
		for _, b := range bindings {
			if !b.complete(e.cell.NumInputs()) || hasMatch(out, e.cell, b.pins) {
				continue
			}
			out = append(out, Match{Cell: e.cell, Inputs: b.pins, Covered: e.pat.Size()})
		}
	}
	return out
}

// hasMatch reports whether ms already binds cell to exactly these nodes.
// Matches at one node are few, so a scan beats building a key.
func hasMatch(ms []Match, cell *genlib.Cell, pins []*network.Node) bool {
	for _, m := range ms {
		if m.Cell == cell && slices.Equal(m.Inputs, pins) {
			return true
		}
	}
	return false
}

// binding maps cell pins to subject nodes. Patterns may be leaf-DAGs
// (e.g. XOR references each pin twice), so a pin can be bound repeatedly
// and must bind consistently.
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

func (b binding) complete(n int) bool {
	if n > len(b.pins) {
		return false
	}
	for i := 0; i < n; i++ {
		if b.pins[i] == nil {
			return false
		}
	}
	return true
}

// matchPattern returns all bindings under which pattern p matches the
// subject cone rooted at n. root marks the top of the match (a match root
// may have any fanout; interior nodes are restricted in tree mode).
func (m *matcher) matchPattern(p *genlib.Pattern, n *network.Node, root bool) []binding {
	// Most patterns at a node fail on gate kinds alone: rule those out
	// before allocating any binding.
	if !m.fits(p, n, root) {
		return nil
	}
	// Determine the pin count lazily from the deepest pin index.
	maxPin := maxPinIndex(p)
	init := newBinding(maxPin + 1)
	return m.matchRec(p, n, root, []binding{init})
}

func maxPinIndex(p *genlib.Pattern) int {
	switch p.Kind {
	case genlib.PatLeaf:
		return p.Pin
	case genlib.PatInv:
		return maxPinIndex(p.L)
	default:
		l, r := maxPinIndex(p.L), maxPinIndex(p.R)
		if r > l {
			return r
		}
		return l
	}
}

// fits reports whether the gate kinds of the subject cone at n can take
// the shape of pattern p under some input order, ignoring how leaves
// bind. matchRec walks the same orders, so a pattern that does not fit
// has no binding.
func (m *matcher) fits(p *genlib.Pattern, n *network.Node, root bool) bool {
	switch p.Kind {
	case genlib.PatLeaf:
		return true
	case genlib.PatInv:
		return decomp.IsInv(n) && m.interiorOK(n, root) && m.fits(p.L, n.Fanin[0], false)
	default: // PatNand
		if !decomp.IsNand2(n) || !m.interiorOK(n, root) {
			return false
		}
		a, b := n.Fanin[0], n.Fanin[1]
		return m.fits(p.L, a, false) && m.fits(p.R, b, false) ||
			m.fits(p.L, b, false) && m.fits(p.R, a, false)
	}
}

// matchRec threads a set of partial bindings through the pattern.
func (m *matcher) matchRec(p *genlib.Pattern, n *network.Node, root bool, partial []binding) []binding {
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
		return m.matchRec(p.L, n.Fanin[0], false, partial)
	default: // PatNand
		if !decomp.IsNand2(n) || !m.interiorOK(n, root) {
			return nil
		}
		a, b := n.Fanin[0], n.Fanin[1]
		var out []binding
		// Both input orders: NAND is commutative.
		left := m.matchRec(p.L, a, false, partial)
		out = append(out, m.matchRec(p.R, b, false, left)...)
		if a != b {
			left = m.matchRec(p.L, b, false, partial)
			out = append(out, m.matchRec(p.R, a, false, left)...)
		}
		return dedupeBindings(out)
	}
}

// interiorOK reports whether node n may participate in a match at the given
// position. Match roots are always allowed; in tree mode interior nodes
// must be fanout-free (single fanout), which confines matches to the
// DAGON-style tree partition.
func (m *matcher) interiorOK(n *network.Node, root bool) bool {
	if root || !m.treeMode {
		return true
	}
	return len(n.Fanout) <= 1
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
