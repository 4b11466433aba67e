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
	// Class is the NPN class key of the matched function when the match
	// came from the cut backend ("" for structural matches); it flows to
	// the map.site journal event of the selected gate.
	Class string
}

// matchSource enumerates candidate matches per subject node. The
// structural matcher computes them on demand in the caller's scratch; the
// cut backend returns tables precomputed on the coordinator and ignores
// it. Implementations must be safe for concurrent matchesAt calls with
// distinct scratch and deterministic: same node, same slice.
type matchSource interface {
	matchesAt(n *network.Node, sc *matchScratch) []Match
}

// patEntry is one compiled pattern with its owning cell, as stored in the
// matcher's root-kind index, with the pattern's binding width (one past
// its largest pin index) computed once.
type patEntry struct {
	cell  *genlib.Cell
	pat   *genlib.Pattern
	width int
}

// matcher enumerates structural matches of library patterns on the subject
// graph.
type matcher struct {
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
	m := &matcher{treeMode: treeMode}
	for _, cell := range lib.Cells {
		for _, pat := range cell.Patterns {
			e := patEntry{cell: cell, pat: pat, width: maxPinIndex(pat) + 1}
			switch pat.Kind {
			case genlib.PatInv:
				m.invRooted = append(m.invRooted, e)
			case genlib.PatNand:
				m.nandRooted = append(m.nandRooted, e)
			}
		}
	}
	return m
}

// matchScratch is the reused working memory of the structural matcher. A
// partial binding maps cell pins to subject nodes as one fixed-width row
// of rows (nil where a pin is still unbound), named by its offset; a list
// of partial bindings is a range of ids holding such offsets. A row is
// never changed once written, so a leaf whose pin is already bound to its
// node passes the row on by offset, and copies it only to bind a new pin.
type matchScratch struct {
	rows []*network.Node
	ids  []int32
	// width is the row width of the pattern being enumerated.
	width int
	// hits are the complete, distinct bindings of the node so far, in
	// match order.
	hits []matchHit
}

// matchHit is a binding that becomes a Match: the pattern's index in its
// root-kind bucket and the binding's row.
type matchHit struct{ entry, row int32 }

// matchesAt enumerates all matches of all library cells at node n, using
// sc as scratch. Matches are deduplicated by (cell, bound nodes), keeping
// the first occurrence. The only allocations are the result and one arena
// that every match's Inputs is cut from.
func (m *matcher) matchesAt(n *network.Node, sc *matchScratch) []Match {
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
	sc.rows, sc.hits = sc.rows[:0], sc.hits[:0]
	arena := 0
	for i := range entries {
		e := &entries[i]
		lo, hi := m.bindings(sc, e, n)
		for _, r := range sc.ids[lo:hi] {
			row := sc.rows[r : int(r)+e.width]
			if !complete(row, e.cell.NumInputs()) || sc.hasHit(entries, e.cell, row) {
				continue
			}
			sc.hits = append(sc.hits, matchHit{int32(i), r})
			arena += e.width
		}
	}
	if len(sc.hits) == 0 {
		return nil
	}
	out := make([]Match, len(sc.hits))
	inputs := make([]*network.Node, arena)
	for j, h := range sc.hits {
		e := &entries[h.entry]
		k := e.width
		in := inputs[:k:k]
		inputs = inputs[k:]
		copy(in, sc.rows[h.row:])
		out[j] = Match{Cell: e.cell, Inputs: in}
	}
	return out
}

// hasHit reports whether sc.hits already binds cell to exactly the nodes
// of row. Matches at one node are few, so a scan beats building a key.
func (sc *matchScratch) hasHit(entries []patEntry, cell *genlib.Cell, row []*network.Node) bool {
	for _, h := range sc.hits {
		if e := &entries[h.entry]; e.cell == cell && slices.Equal(sc.rows[h.row:int(h.row)+e.width], row) {
			return true
		}
	}
	return false
}

// complete reports whether row binds each of a cell's first n pins.
func complete(row []*network.Node, n int) bool {
	return n <= len(row) && !slices.Contains(row[:n], nil)
}

// bindings enumerates, into sc, every binding under which pattern e
// matches the subject cone rooted at n (a match root may have any fanout;
// interior nodes are restricted in tree mode). It returns the range of
// sc.ids holding the bindings' rows, valid until the next call.
func (m *matcher) bindings(sc *matchScratch, e *patEntry, n *network.Node) (lo, hi int) {
	sc.ids = sc.ids[:0]
	// Most patterns at a node fail on gate kinds alone: rule those out
	// before writing any row.
	if !m.fits(e.pat, n, true) {
		return 0, 0
	}
	off := len(sc.rows)
	sc.rows = slices.Grow(sc.rows, e.width)[:off+e.width]
	clear(sc.rows[off:])
	sc.ids = append(sc.ids, int32(off))
	sc.width = e.width
	return m.matchRec(sc, e.pat, n, true, 0, 1)
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

// matchRec threads the partial bindings sc.ids[lo:hi] through the pattern
// breadth-wise and returns the range of sc.ids holding the result: a
// non-empty result always lies past every id that existed at the call.
// At a NAND both input orders are tried, (a,b) before (b,a), and the
// bindings of the two are deduplicated on their rows, first occurrence
// kept; the ids in between are reused.
func (m *matcher) matchRec(sc *matchScratch, p *genlib.Pattern, n *network.Node, root bool, lo, hi int) (int, int) {
	if lo == hi {
		return lo, lo
	}
	switch p.Kind {
	case genlib.PatLeaf:
		start := len(sc.ids)
		for i := lo; i < hi; i++ {
			r := int(sc.ids[i])
			switch sc.rows[r+p.Pin] {
			case n:
				sc.ids = append(sc.ids, int32(r))
			case nil:
				off := len(sc.rows)
				sc.rows = append(sc.rows, sc.rows[r:r+sc.width]...)
				sc.rows[off+p.Pin] = n
				sc.ids = append(sc.ids, int32(off))
			}
		}
		return start, len(sc.ids)
	case genlib.PatInv:
		if !decomp.IsInv(n) || !m.interiorOK(n, root) {
			return lo, lo
		}
		return m.matchRec(sc, p.L, n.Fanin[0], false, lo, hi)
	default: // PatNand
		if !decomp.IsNand2(n) || !m.interiorOK(n, root) {
			return lo, lo
		}
		a, b := n.Fanin[0], n.Fanin[1]
		base := len(sc.ids)
		// Both input orders: NAND is commutative.
		l, h := m.matchRec(sc, p.L, a, false, lo, hi)
		ab0, ab1 := m.matchRec(sc, p.R, b, false, l, h)
		ba0, ba1 := 0, 0
		if a != b {
			l, h = m.matchRec(sc, p.L, b, false, lo, hi)
			ba0, ba1 = m.matchRec(sc, p.R, a, false, l, h)
		}
		// Compact both results to base, dropping repeated rows. The write
		// index never passes the read index: every non-empty result lies
		// at or past base, in order.
		k := base
		for _, rg := range [2][2]int{{ab0, ab1}, {ba0, ba1}} {
			for i := rg[0]; i < rg[1]; i++ {
				if r := sc.ids[i]; !sc.seen(base, k, r) {
					sc.ids[k] = r
					k++
				}
			}
		}
		sc.ids = sc.ids[:k]
		return base, k
	}
}

// seen reports whether a row of sc.ids[lo:hi] binds the same nodes as row
// r.
func (sc *matchScratch) seen(lo, hi int, r int32) bool {
	w := sc.width
	row := sc.rows[r : int(r)+w]
	for _, o := range sc.ids[lo:hi] {
		if slices.Equal(sc.rows[o:int(o)+w], row) {
			return true
		}
	}
	return false
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
