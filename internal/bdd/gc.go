package bdd

// Root is an external handle keeping a function alive across garbage
// collection. Roots are reference-counted per Ref: protecting the same Ref
// twice requires two Releases.
type Root struct {
	m   *Manager
	ref Ref
}

// Protect registers r as a GC root and returns its handle. Terminals are
// accepted (they are never collected) so callers need no special casing.
func (m *Manager) Protect(r Ref) *Root {
	m.roots[r]++
	return &Root{m: m, ref: r}
}

// Release drops the handle's protection. Releasing twice is a no-op.
func (rt *Root) Release() {
	if rt.m == nil {
		return
	}
	m, r := rt.m, rt.ref
	rt.m = nil
	if m.roots[r] > 1 {
		m.roots[r]--
	} else {
		delete(m.roots, r)
	}
}

// GC reclaims every node unreachable from the root set by mark-and-sweep,
// clears the computed table (its entries may name dead nodes), rebuilds
// internal reference counts for the survivors and relinks them into fresh
// unique-table chains. Refs of unrooted functions are invalidated; rooted
// Refs survive unchanged.
func (m *Manager) GC() {
	marked := make([]bool, len(m.nodes))
	marked[False], marked[True] = true, true
	stack := make([]Ref, 0, len(m.roots))
	for r := range m.roots {
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if marked[r] {
			continue
		}
		marked[r] = true
		n := m.nodes[r]
		if !marked[n.lo] {
			stack = append(stack, n.lo)
		}
		if !marked[n.hi] {
			stack = append(stack, n.hi)
		}
	}
	m.clearCache()
	for v := range m.unique {
		clear(m.unique[v].buckets)
		m.unique[v].count = 0
	}
	freed := int64(0)
	for i := range m.nodes {
		m.nodes[i].rc = 0
	}
	for i := 2; i < len(m.nodes); i++ {
		r := Ref(i)
		n := m.nodes[r]
		if n.varID == varFree {
			continue
		}
		if !marked[r] {
			m.nodes[r] = node{varID: varFree}
			m.free = append(m.free, r)
			m.live--
			freed++
			continue
		}
		m.nodes[n.lo].rc++
		m.nodes[n.hi].rc++
		m.link(r)
	}
	m.stats.GCRuns++
	m.stats.NodesFreed += freed
}

// Maintain runs the manager's housekeeping when growth thresholds are hit:
// a GC sweep once live nodes pass the GC trigger, then (when dynamic
// reordering is enabled) a sifting pass once they pass the reorder trigger.
// After each action its trigger is rearmed at double the surviving live
// count, so housekeeping cost stays amortized-constant per allocation.
//
// Contract: the caller must hold Root handles for every Ref it intends to
// use afterwards — Maintain may collect anything unrooted and may change
// the variable order. Call it between logical work items (e.g. between
// network nodes when building global BDDs), never with loose intermediate
// Refs in hand.
func (m *Manager) Maintain() {
	if m.gcThreshold > 0 && m.live >= m.gcAt {
		m.GC()
		m.gcAt = maxInt(m.gcThreshold, 2*m.live)
	}
	if m.autoReorder && m.live >= m.reorderAt {
		m.Reorder()
		m.reorderAt = maxInt(m.reorderThreshold, 2*m.live)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
