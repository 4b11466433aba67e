package bdd

import (
	"sort"

	"powermap/internal/sop"
)

// This file keeps the map-based kernel the flat tables replaced, as the
// reference of TestKernelMatchesMapReference: per-variable Go maps for the
// unique tables and one Go map, cleared when full, for the computed table.
// Apart from the renames it is the kernel as it was, so any difference in
// Refs, errors or node counts between the two is a fault of the flat one.

type pair struct {
	lo, hi Ref
}

type cacheKey struct {
	op      int32
	f, g, h Ref
}

// mapManager owns a forest of ROBDD nodes over a dynamic variable order.
// Variable v initially has level v; Reorder may move it.
type mapManager struct {
	nodes    []node
	free     []Ref
	unique   []map[pair]Ref // per-variable unique tables
	computed map[cacheKey]Ref
	roots    map[Ref]int

	var2level []int32 // variable -> level; entry numVars is the terminal level
	level2var []int32 // level -> variable

	numVars int
	termVar int32
	live    int // live internal nodes (terminals excluded)

	limit      int
	cacheLimit int

	gcThreshold      int
	gcAt             int
	autoReorder      bool
	reorderThreshold int
	reorderAt        int

	stats Stats
}

// newMapManager returns a manager over numVars variables tuned by cfg.
func newMapManager(numVars int, cfg Config) *mapManager {
	cfg = cfg.withDefaults()
	m := &mapManager{
		computed:         make(map[cacheKey]Ref),
		roots:            make(map[Ref]int),
		numVars:          numVars,
		termVar:          int32(numVars),
		limit:            cfg.NodeLimit,
		cacheLimit:       cfg.CacheLimit,
		gcThreshold:      cfg.GCThreshold,
		gcAt:             cfg.GCThreshold,
		autoReorder:      cfg.Reorder,
		reorderThreshold: cfg.ReorderThreshold,
		reorderAt:        cfg.ReorderThreshold,
	}
	m.nodes = append(m.nodes,
		node{varID: m.termVar}, // False
		node{varID: m.termVar}, // True
	)
	m.unique = make([]map[pair]Ref, numVars)
	for v := range m.unique {
		m.unique[v] = make(map[pair]Ref)
	}
	m.var2level = make([]int32, numVars+1)
	m.level2var = make([]int32, numVars)
	for v := 0; v <= numVars; v++ {
		m.var2level[v] = int32(v)
	}
	for l := 0; l < numVars; l++ {
		m.level2var[l] = int32(l)
	}
	return m
}

// Stats returns the work counters accumulated since creation.
func (m *mapManager) Stats() Stats {
	st := m.stats
	st.Live = int64(m.live)
	st.CacheEntries = int64(len(m.computed))
	return st
}

// level returns the order position of r's test variable; terminals sit
// below every variable.
func (m *mapManager) level(r Ref) int32 { return m.var2level[m.nodes[r].varID] }

// Var returns the BDD for variable v.
func (m *mapManager) Var(v int) (Ref, error) {
	if v < 0 || v >= m.numVars {
		return False, &VarRangeError{Var: v, NumVars: m.numVars}
	}
	return m.mk(int32(v), False, True)
}

// mk returns the canonical node (v, lo, hi), reusing the unique table and
// applying the lo==hi reduction rule.
func (m *mapManager) mk(v int32, lo, hi Ref) (Ref, error) {
	if lo == hi {
		m.stats.UniqueHits++
		return lo, nil
	}
	key := pair{lo, hi}
	if r, ok := m.unique[v][key]; ok {
		m.stats.UniqueHits++
		return r, nil
	}
	return m.alloc(v, lo, hi)
}

// alloc creates a fresh node, preferring recycled free-list slots. The
// internal reference counts of both children are bumped; the new node
// starts with rc 0 (nothing points at it yet).
func (m *mapManager) alloc(v int32, lo, hi Ref) (Ref, error) {
	if m.live >= m.limit {
		return False, &NodeLimitError{Live: m.live, Limit: m.limit}
	}
	var r Ref
	if n := len(m.free); n > 0 {
		r = m.free[n-1]
		m.free = m.free[:n-1]
		m.nodes[r] = node{varID: v, lo: lo, hi: hi}
	} else {
		r = Ref(len(m.nodes))
		m.nodes = append(m.nodes, node{varID: v, lo: lo, hi: hi})
	}
	m.nodes[lo].rc++
	m.nodes[hi].rc++
	m.unique[v][pair{lo, hi}] = r
	m.live++
	if int64(m.live) > m.stats.PeakLive {
		m.stats.PeakLive = int64(m.live)
	}
	m.stats.Allocs++
	return r, nil
}

// cachePut inserts into the computed table, clearing it first when the
// size bound is reached (cheap amortized eviction; correctness is
// unaffected because entries are pure memoization).
func (m *mapManager) cachePut(k cacheKey, r Ref) {
	if m.cacheLimit > 0 && len(m.computed) >= m.cacheLimit {
		m.computed = make(map[cacheKey]Ref)
		m.stats.CacheResets++
	}
	m.computed[k] = r
}

// Not returns the complement of f.
func (m *mapManager) Not(f Ref) (Ref, error) { return m.Ite(f, False, True) }

// And returns f AND g.
func (m *mapManager) And(f, g Ref) (Ref, error) { return m.apply(opAnd, f, g) }

// Or returns f OR g.
func (m *mapManager) Or(f, g Ref) (Ref, error) { return m.apply(opOr, f, g) }

// Xor returns f XOR g.
func (m *mapManager) Xor(f, g Ref) (Ref, error) { return m.apply(opXor, f, g) }

func (m *mapManager) apply(op int32, f, g Ref) (Ref, error) {
	switch op {
	case opAnd:
		if f == False || g == False {
			return False, nil
		}
		if f == True {
			return g, nil
		}
		if g == True {
			return f, nil
		}
		if f == g {
			return f, nil
		}
	case opOr:
		if f == True || g == True {
			return True, nil
		}
		if f == False {
			return g, nil
		}
		if g == False {
			return f, nil
		}
		if f == g {
			return f, nil
		}
	case opXor:
		if f == False {
			return g, nil
		}
		if g == False {
			return f, nil
		}
		if f == g {
			return False, nil
		}
		if f == True && g == True {
			return False, nil
		}
	}
	// Normalize commutative operand order for cache hits.
	a, b := f, g
	if a > b {
		a, b = b, a
	}
	key := cacheKey{op: op, f: a, g: b}
	if r, ok := m.computed[key]; ok {
		m.stats.CacheHits++
		return r, nil
	}
	m.stats.CacheMisses++
	top := m.level(a)
	if l := m.level(b); l < top {
		top = l
	}
	tv := m.level2var[top]
	a0, a1 := m.cofactors(a, tv)
	b0, b1 := m.cofactors(b, tv)
	r0, err := m.apply(op, a0, b0)
	if err != nil {
		return False, err
	}
	r1, err := m.apply(op, a1, b1)
	if err != nil {
		return False, err
	}
	r, err := m.mk(tv, r0, r1)
	if err != nil {
		return False, err
	}
	m.cachePut(key, r)
	return r, nil
}

// cofactors returns f's children when f tests variable v, else (f, f).
func (m *mapManager) cofactors(f Ref, v int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.varID != v {
		return f, f
	}
	return n.lo, n.hi
}

// Ite returns if-then-else(f, g, h) = f·g + f̄·h.
func (m *mapManager) Ite(f, g, h Ref) (Ref, error) {
	switch {
	case f == True:
		return g, nil
	case f == False:
		return h, nil
	case g == h:
		return g, nil
	case g == True && h == False:
		return f, nil
	}
	key := cacheKey{op: opIte, f: f, g: g, h: h}
	if r, ok := m.computed[key]; ok {
		m.stats.CacheHits++
		return r, nil
	}
	m.stats.CacheMisses++
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	tv := m.level2var[top]
	f0, f1 := m.cofactors(f, tv)
	g0, g1 := m.cofactors(g, tv)
	h0, h1 := m.cofactors(h, tv)
	r0, err := m.Ite(f0, g0, h0)
	if err != nil {
		return False, err
	}
	r1, err := m.Ite(f1, g1, h1)
	if err != nil {
		return False, err
	}
	r, err := m.mk(tv, r0, r1)
	if err != nil {
		return False, err
	}
	m.cachePut(key, r)
	return r, nil
}

// FromCover builds the BDD of an SOP cover where cover variable i is
// represented by inputs[i] (an arbitrary function, enabling composition of
// a local function with its fanins' global functions).
func (m *mapManager) FromCover(f *sop.Cover, inputs []Ref) (Ref, error) {
	if f.NumVars != len(inputs) {
		return False, &CoverWidthError{CoverVars: f.NumVars, Inputs: len(inputs)}
	}
	result := False
	for _, c := range f.Cubes {
		term := True
		for v, l := range c {
			var err error
			switch l {
			case sop.Pos:
				term, err = m.And(term, inputs[v])
			case sop.Neg:
				var neg Ref
				neg, err = m.Not(inputs[v])
				if err == nil {
					term, err = m.And(term, neg)
				}
			}
			if err != nil {
				return False, err
			}
			if term == False {
				break
			}
		}
		var err error
		result, err = m.Or(result, term)
		if err != nil {
			return False, err
		}
		if result == True {
			break
		}
	}
	return result, nil
}

// mapRoot is an external handle keeping a function alive across garbage
// collection. Roots are reference-counted per Ref: protecting the same Ref
// twice requires two Releases.
type mapRoot struct {
	m   *mapManager
	ref Ref
}

// Protect registers r as a GC root and returns its handle. Terminals are
// accepted (they are never collected) so callers need no special casing.
func (m *mapManager) Protect(r Ref) *mapRoot {
	m.roots[r]++
	return &mapRoot{m: m, ref: r}
}

// Release drops the handle's protection. Releasing twice is a no-op.
func (rt *mapRoot) Release() {
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
// clears the computed table (its entries may name dead nodes), and rebuilds
// internal reference counts for the survivors. Refs of unrooted functions
// are invalidated; rooted Refs survive unchanged.
func (m *mapManager) GC() {
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
			delete(m.unique[n.varID], pair{n.lo, n.hi})
			m.nodes[r] = node{varID: varFree}
			m.free = append(m.free, r)
			m.live--
			freed++
			continue
		}
		m.nodes[n.lo].rc++
		m.nodes[n.hi].rc++
	}
	if len(m.computed) > 0 {
		m.computed = make(map[cacheKey]Ref)
		m.stats.CacheResets++
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
// Contract: the caller must hold mapRoot handles for every Ref it intends to
// use afterwards — Maintain may collect anything unrooted and may change
// the variable order. Call it between logical work items (e.g. between
// network nodes when building global BDDs), never with loose intermediate
// Refs in hand.
func (m *mapManager) Maintain() {
	if m.gcThreshold > 0 && m.live >= m.gcAt {
		m.GC()
		m.gcAt = maxInt(m.gcThreshold, 2*m.live)
	}
	if m.autoReorder && m.live >= m.reorderAt {
		m.Reorder()
		m.reorderAt = maxInt(m.reorderThreshold, 2*m.live)
	}
}

// Reorder improves the variable order by Rudell-style sifting: each
// variable (largest unique table first) is moved through every order
// position by adjacent-level swaps and parked where the live-node count
// was smallest. The Ref → function mapping of every live node is
// preserved — callers' Refs stay valid — only the order arrays and the
// nodes' internal structure change.
//
// A GC runs first so dead nodes do not distort size decisions, which
// invalidates unrooted Refs exactly as GC does; the computed table is
// cleared (cached results remain function-correct across reorders, but the
// tidy cache keeps peak memory honest after a large structural change).
func (m *mapManager) Reorder() {
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
		si, sj := len(m.unique[vars[i]]), len(m.unique[vars[j]])
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
func (m *mapManager) siftVar(v int32) {
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
func (m *mapManager) swapAdjacent(l int) bool {
	if l < 0 || l+1 >= m.numVars {
		return false
	}
	u := m.level2var[l]
	v := m.level2var[l+1]

	// Collect the u-nodes that must be rewritten, in deterministic order
	// (map iteration is randomized; Ref order is allocation order).
	affected := make([]Ref, 0, len(m.unique[u]))
	for _, r := range m.unique[u] {
		n := m.nodes[r]
		if m.nodes[n.lo].varID == v || m.nodes[n.hi].varID == v {
			affected = append(affected, r)
		}
	}
	// Worst case each rewrite allocates two fresh u-nodes.
	if m.live+2*len(affected) > m.limit {
		return false
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })

	for _, r := range affected {
		delete(m.unique[u], pair{m.nodes[r].lo, m.nodes[r].hi})
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
		m.unique[v][pair{a, b}] = r
		m.stats.ReorderSwaps++
	}
	m.level2var[l], m.level2var[l+1] = v, u
	m.var2level[u], m.var2level[v] = int32(l+1), int32(l)
	return true
}

// mkSwap is mk for swapAdjacent's rewrites: the headroom check in
// swapAdjacent guarantees allocation cannot fail, and the free list
// (refilled by deref) absorbs most of the transient growth.
func (m *mapManager) mkSwap(v int32, lo, hi Ref) Ref {
	if lo == hi {
		m.stats.UniqueHits++
		return lo
	}
	if r, ok := m.unique[v][pair{lo, hi}]; ok {
		m.stats.UniqueHits++
		return r
	}
	var r Ref
	if n := len(m.free); n > 0 {
		r = m.free[n-1]
		m.free = m.free[:n-1]
		m.nodes[r] = node{varID: v, lo: lo, hi: hi}
	} else {
		r = Ref(len(m.nodes))
		m.nodes = append(m.nodes, node{varID: v, lo: lo, hi: hi})
	}
	m.nodes[lo].rc++
	m.nodes[hi].rc++
	m.unique[v][pair{lo, hi}] = r
	m.live++
	if int64(m.live) > m.stats.PeakLive {
		m.stats.PeakLive = int64(m.live)
	}
	m.stats.Allocs++
	return r
}

// deref drops one internal reference from r and eagerly reclaims it (and
// recursively its children) once no parents and no roots hold it. Eager
// reclamation keeps sifting's size signal honest: dead intermediate nodes
// would otherwise mask genuine improvements until the next GC.
func (m *mapManager) deref(r Ref) {
	if r == False || r == True {
		return
	}
	m.nodes[r].rc--
	if m.nodes[r].rc > 0 || m.roots[r] > 0 {
		return
	}
	n := m.nodes[r]
	delete(m.unique[n.varID], pair{n.lo, n.hi})
	m.nodes[r] = node{varID: varFree}
	m.free = append(m.free, r)
	m.live--
	m.stats.NodesFreed++
	m.deref(n.lo)
	m.deref(n.hi)
}
