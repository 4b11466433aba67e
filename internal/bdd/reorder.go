package bdd

import (
	"slices"
	"sort"
)

// Reorder improves the variable order by Rudell-style sifting: each
// variable (largest unique table first) is moved through every order
// position by adjacent-level swaps and parked where the live-node count
// was smallest. The Ref → function mapping of every live node is
// preserved — callers' Refs stay valid — only the order arrays and the
// nodes' internal structure change.
//
// A GC runs first so dead nodes do not distort size decisions, which
// invalidates unrooted Refs exactly as GC does. It also clears the
// computed table, and the swaps add nothing to it, so the table is empty
// afterwards: sifting frees and reuses slots, so an entry from before it
// could name a different node.
func (m *Manager) Reorder() {
	if m.numVars < 2 {
		return
	}
	m.GC()

	// Sift biggest tables first: moving a fat variable early shrinks the
	// graph the following sifts have to push around.
	vars := make([]int32, m.numVars)
	for i := range vars {
		vars[i] = int32(i)
	}
	sort.Slice(vars, func(i, j int) bool {
		si, sj := m.unique[vars[i]].count, m.unique[vars[j]].count
		if si != sj {
			return si > sj
		}
		return vars[i] < vars[j]
	})
	for _, v := range vars {
		m.siftVar(v)
	}
	m.stats.ReorderRuns++
}

// siftVar moves variable v through the order and leaves it at the position
// that minimized live nodes. It walks toward the nearer end first, then
// sweeps to the other end, then returns to the best position seen. A
// growth budget aborts a direction that inflates the graph pathologically.
func (m *Manager) siftVar(v int32) {
	start := int(m.var2level[v])
	last := m.numVars - 1
	bestSize := m.live
	bestLevel := start
	budget := m.live + m.live/5 + 16

	// Move the variable at level l one step in dir (+1 down, -1 up) by
	// swapping the pair of adjacent levels; track the best size seen.
	step := func(dir int) bool {
		l := int(m.var2level[v])
		swapLevel := l
		if dir < 0 {
			swapLevel = l - 1
		}
		if !m.swapAdjacent(swapLevel) {
			return false
		}
		if m.live < bestSize {
			bestSize = m.live
			bestLevel = int(m.var2level[v])
		}
		return m.live <= budget
	}

	downFirst := last-start <= start
	dirs := [2]int{-1, +1}
	if downFirst {
		dirs = [2]int{+1, -1}
	}
	for _, dir := range dirs {
		for {
			l := int(m.var2level[v])
			if (dir > 0 && l >= last) || (dir < 0 && l <= 0) {
				break
			}
			if !step(dir) {
				break
			}
		}
	}
	// Return to the best position.
	for int(m.var2level[v]) > bestLevel {
		if !m.swapAdjacent(int(m.var2level[v]) - 1) {
			break
		}
	}
	for int(m.var2level[v]) < bestLevel {
		if !m.swapAdjacent(int(m.var2level[v])) {
			break
		}
	}
}

// swapAdjacent exchanges the variables at levels l and l+1, rewriting in
// place every level-l node that depends on both. Let u be the variable at
// level l and v below it. A u-node with no v-child commutes untouched —
// only its level changes. A u-node f = (u, lo, hi) with a v-child is
// rewritten as
//
//	f = (v, (u, f00, f10), (u, f01, f11))
//
// where fij is the cofactor of f under u=i, v=j. The rewritten node always
// depends on u (its v-cofactors differ in u by construction, else f would
// not have tested u), so reinserting it into unique[v] cannot collide with
// a pre-existing v-node, and reusing f's slot keeps every parent Ref valid.
// Children orphaned by the rewrite are reclaimed eagerly via deref.
//
// Returns false (order unchanged) if the transient node growth could
// exceed the manager's node limit.
func (m *Manager) swapAdjacent(l int) bool {
	if l < 0 || l+1 >= m.numVars {
		return false
	}
	u := m.level2var[l]
	v := m.level2var[l+1]

	// Collect the u-nodes that must be rewritten, in deterministic order
	// (chain order depends on hashing; Ref order is allocation order).
	affected := m.affected[:0]
	for _, r := range m.unique[u].buckets {
		for ; r != False; r = m.nodes[r].next {
			n := m.nodes[r]
			if m.nodes[n.lo].varID == v || m.nodes[n.hi].varID == v {
				affected = append(affected, r)
			}
		}
	}
	m.affected = affected
	// Worst case each rewrite allocates two fresh u-nodes.
	if m.live+2*len(affected) > m.limit {
		return false
	}
	slices.Sort(affected)

	for _, r := range affected {
		m.unlink(r)
	}
	for _, r := range affected {
		n := m.nodes[r]
		f00, f01 := m.cofactors(n.lo, v)
		f10, f11 := m.cofactors(n.hi, v)
		// Keep the grandchildren alive through the rewrite even if the
		// old children die.
		m.nodes[f00].rc++
		m.nodes[f01].rc++
		m.nodes[f10].rc++
		m.nodes[f11].rc++
		m.deref(n.lo)
		m.deref(n.hi)
		a := m.mkSwap(u, f00, f10)
		b := m.mkSwap(u, f01, f11)
		m.nodes[f00].rc--
		m.nodes[f01].rc--
		m.nodes[f10].rc--
		m.nodes[f11].rc--
		m.nodes[r] = node{varID: v, lo: a, hi: b, rc: m.nodes[r].rc}
		m.nodes[a].rc++
		m.nodes[b].rc++
		m.link(r)
		m.stats.ReorderSwaps++
	}
	m.level2var[l], m.level2var[l+1] = v, u
	m.var2level[u], m.var2level[v] = int32(l+1), int32(l)
	return true
}

// mkSwap is mk for swapAdjacent's rewrites: the headroom check in
// swapAdjacent guarantees allocation cannot fail, and the free list
// (refilled by deref) absorbs most of the transient growth.
func (m *Manager) mkSwap(v int32, lo, hi Ref) Ref {
	if r, ok := m.lookup(v, lo, hi); ok {
		return r
	}
	return m.alloc(v, lo, hi)
}

// deref drops one internal reference from r and eagerly reclaims it (and
// recursively its children) once no parents and no roots hold it. Eager
// reclamation keeps sifting's size signal honest: dead intermediate nodes
// would otherwise mask genuine improvements until the next GC.
func (m *Manager) deref(r Ref) {
	if r == False || r == True {
		return
	}
	m.nodes[r].rc--
	if m.nodes[r].rc > 0 || m.roots[r] > 0 {
		return
	}
	m.unlink(r)
	n := m.nodes[r]
	m.nodes[r] = node{varID: varFree}
	m.free = append(m.free, r)
	m.live--
	m.stats.NodesFreed++
	m.deref(n.lo)
	m.deref(n.hi)
}
