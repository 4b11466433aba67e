// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with a shared unique table, the ite operator, and the linear-traversal
// signal-probability computation of Najm used by the paper (Equation 2):
//
//	P(f) = P(x)·P(f_x) + (1-P(x))·P(f_x̄)
//
// evaluated by one depth-first pass over the DAG with memoization.
//
// The kernel is production-grade: every constructive operation returns an
// error instead of panicking (a too-wide function yields a wrapped
// ErrNodeLimit), node storage is garbage-collected by mark-and-sweep from
// external root handles (Protect/Release), neither table is a Go map (each
// variable's unique table chains its nodes through the node store, and the
// computed table is a size-bounded, direct-mapped array cleared on GC), and
// the variable order can be improved at run time by Rudell-style sifting
// (Reorder), either explicitly or automatically on live-node growth via
// Maintain.
//
// A Ref identifies a function, not a storage slot: garbage collection and
// reordering both preserve the Ref → function mapping of every live
// reference, so callers may hold Refs across GC (if rooted) and across
// reorder (always).
//
// The manager is not safe for concurrent use.
package bdd

import (
	"math/bits"

	"powermap/internal/sop"
)

// Ref identifies a BDD node within a Manager. The constants False and True
// are valid in every manager.
type Ref int32

// Terminal references shared by all managers.
const (
	False Ref = 0
	True  Ref = 1
)

// node is one slot of the manager's node store. varID is the variable
// tested by the node (not its level: levels move under reordering);
// terminals use the sentinel m.termVar and free slots use varFree. rc
// counts references from parent nodes only — external references are
// tracked separately in the root table. next links the node into its
// variable's unique-table chain; Ref 0 (False) ends a chain, since
// terminals are never in a table.
type node struct {
	varID  int32
	lo, hi Ref
	rc     int32
	next   Ref
}

// varFree marks a reclaimed slot on the free list.
const varFree = int32(-1)

// subtable is one variable's unique table: a power-of-two bucket array of
// chain heads, the chains running through the nodes' next fields.
type subtable struct {
	buckets []Ref
	shift   uint32 // 32 - log2(len(buckets))
	count   int    // nodes in the table
}

// entry is one computed-table slot. op holds the operator code plus one,
// so the zero entry marks an empty slot; the binary operators leave h 0.
type entry struct {
	op      int32
	f, g, h Ref
	r       Ref
}

// Initial table sizes: every subtable starts at minBuckets chain heads and
// the computed table at min(minCache, its bound) slots; both double as
// the nodes they serve outgrow them.
const (
	minBuckets = 8
	minCache   = 256
)

const (
	opAnd = iota
	opOr
	opXor
	opIte
)

// Defaults applied by NewWith when the corresponding Config field is zero.
const (
	DefaultNodeLimit        = 4 << 20
	DefaultCacheLimit       = 1 << 20
	DefaultGCThreshold      = 1 << 16
	DefaultReorderThreshold = 1 << 13
)

// Config tunes a Manager. The zero value selects the defaults above with
// dynamic reordering disabled.
type Config struct {
	// NodeLimit caps live internal nodes; operations that would exceed it
	// return a wrapped ErrNodeLimit. 0 selects DefaultNodeLimit.
	NodeLimit int
	// CacheLimit bounds the computed-table occupancy: the table never
	// grows past the largest power of two at or below it, and a new entry
	// overwrites whatever its slot held. 0 selects DefaultCacheLimit;
	// negative leaves the table free to grow with the live nodes.
	CacheLimit int
	// GCThreshold is the live-node count at which Maintain first runs a
	// mark-and-sweep; after each GC the trigger doubles from the surviving
	// live count. 0 selects DefaultGCThreshold; negative disables
	// automatic GC (explicit GC calls still work).
	GCThreshold int
	// Reorder enables dynamic variable reordering by sifting in Maintain.
	Reorder bool
	// ReorderThreshold is the live-node count at which Maintain first
	// sifts; after each reorder the trigger doubles from the surviving
	// live count. 0 selects DefaultReorderThreshold.
	ReorderThreshold int
}

// withDefaults resolves the zero-value Config fields to the package
// defaults, exactly as NewWith applies them.
func (cfg Config) withDefaults() Config {
	if cfg.NodeLimit == 0 {
		cfg.NodeLimit = DefaultNodeLimit
	}
	if cfg.CacheLimit == 0 {
		cfg.CacheLimit = DefaultCacheLimit
	}
	if cfg.GCThreshold == 0 {
		cfg.GCThreshold = DefaultGCThreshold
	}
	if cfg.ReorderThreshold == 0 {
		cfg.ReorderThreshold = DefaultReorderThreshold
	}
	return cfg
}

// Stats counts the work a Manager has performed since creation. The
// counters are plain integers bumped on the hot paths (the manager is
// single-threaded by contract), cheap enough to stay always-on; callers
// that thread an obs.Scope flush them into the metrics registry.
type Stats struct {
	// Allocs is the number of nodes created (terminals excluded).
	Allocs int64
	// UniqueHits counts mk calls answered from the unique table (or
	// collapsed by the lo==hi reduction rule).
	UniqueHits int64
	// CacheHits / CacheMisses count computed-table lookups in the apply
	// and ite operators.
	CacheHits   int64
	CacheMisses int64
	// GCRuns counts mark-and-sweep passes; NodesFreed sums the nodes they
	// (and sifting's eager reclamation) returned to the free list.
	GCRuns     int64
	NodesFreed int64
	// Live is the current live internal node count; PeakLive its maximum
	// since creation.
	Live     int64
	PeakLive int64
	// ReorderRuns counts sifting passes; ReorderSwaps the adjacent-level
	// swaps they performed.
	ReorderRuns  int64
	ReorderSwaps int64
	// CacheResets counts whole computed-table clears, which only GC (and
	// with it Reorder) makes; CacheEntries is the current occupancy, the
	// number of filled slots.
	CacheResets  int64
	CacheEntries int64
}

// Manager owns a forest of ROBDD nodes over a dynamic variable order.
// Variable v initially has level v; Reorder may move it.
type Manager struct {
	nodes  []node
	free   []Ref
	unique []subtable // per-variable unique tables
	roots  map[Ref]int

	cache      []entry // computed table, a power of two long
	cacheShift uint32  // 32 - log2(len(cache))
	cacheUsed  int     // filled slots
	cacheCap   int     // the table's size bound, a power of two (2^31 when unbounded)

	var2level []int32 // variable -> level; entry numVars is the terminal level
	level2var []int32 // level -> variable

	numVars int
	termVar int32
	live    int // live internal nodes (terminals excluded)

	limit int

	gcThreshold      int
	gcAt             int
	autoReorder      bool
	reorderThreshold int
	reorderAt        int

	affected []Ref // swapAdjacent's work list, reused across swaps

	stats Stats
}

// NewWith returns a manager over numVars variables tuned by cfg.
func NewWith(numVars int, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		roots:            make(map[Ref]int),
		numVars:          numVars,
		termVar:          int32(numVars),
		limit:            cfg.NodeLimit,
		cacheCap:         1 << 31,
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
	m.unique = make([]subtable, numVars)
	for v := range m.unique {
		m.unique[v] = subtable{buckets: make([]Ref, minBuckets), shift: 32 - log2(minBuckets)}
	}
	if cfg.CacheLimit > 0 {
		m.cacheCap = 1 << log2(cfg.CacheLimit)
	}
	size := min(minCache, m.cacheCap)
	m.cache = make([]entry, size)
	m.cacheShift = 32 - log2(size)
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
func (m *Manager) Stats() Stats {
	st := m.stats
	st.Live = int64(m.live)
	st.CacheEntries = int64(m.cacheUsed)
	return st
}

// log2 returns the floor of log2(n) for n ≥ 1.
func log2(n int) uint32 { return uint32(bits.Len(uint(n)) - 1) }

// pairSlot hashes a (lo, hi) pair into a table of 1<<(32-shift) slots,
// taking the top bits of a multiplicative hash.
func pairSlot(lo, hi Ref, shift uint32) uint32 {
	return ((uint32(lo)*0x9E3779B1 + uint32(hi)) * 0x85EBCA77) >> shift
}

// level returns the order position of r's test variable; terminals sit
// below every variable.
func (m *Manager) level(r Ref) int32 { return m.var2level[m.nodes[r].varID] }

// Var returns the BDD for variable v.
func (m *Manager) Var(v int) (Ref, error) {
	if v < 0 || v >= m.numVars {
		return False, &VarRangeError{Var: v, NumVars: m.numVars}
	}
	return m.mk(int32(v), False, True)
}

// mk returns the canonical node (v, lo, hi), reusing the unique table and
// applying the lo==hi reduction rule.
func (m *Manager) mk(v int32, lo, hi Ref) (Ref, error) {
	if r, ok := m.lookup(v, lo, hi); ok {
		return r, nil
	}
	if m.live >= m.limit {
		return False, &NodeLimitError{Live: m.live, Limit: m.limit}
	}
	return m.alloc(v, lo, hi), nil
}

// lookup answers mk from the reduction rule or v's unique table.
func (m *Manager) lookup(v int32, lo, hi Ref) (Ref, bool) {
	if lo == hi {
		m.stats.UniqueHits++
		return lo, true
	}
	t := &m.unique[v]
	for r := t.buckets[pairSlot(lo, hi, t.shift)]; r != False; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.lo == lo && n.hi == hi {
			m.stats.UniqueHits++
			return r, true
		}
	}
	return False, false
}

// alloc creates the node (v, lo, hi), preferring recycled free-list slots,
// and links it into v's unique table. The internal reference counts of
// both children are bumped; the new node starts with rc 0 (nothing points
// at it yet). The caller has checked the node limit.
func (m *Manager) alloc(v int32, lo, hi Ref) Ref {
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
	m.link(r)
	m.live++
	if int64(m.live) > m.stats.PeakLive {
		m.stats.PeakLive = int64(m.live)
	}
	m.stats.Allocs++
	if m.live > len(m.cache) && len(m.cache) < m.cacheCap {
		m.growCache()
	}
	return r
}

// link adds node r to its variable's unique table, doubling the table
// once it holds more nodes than buckets.
func (m *Manager) link(r Ref) {
	t := &m.unique[m.nodes[r].varID]
	if t.count >= len(t.buckets) {
		m.growSubtable(t)
	}
	m.push(t, r)
	t.count++
}

// push puts node r at the head of its chain in t.
func (m *Manager) push(t *subtable, r Ref) {
	n := &m.nodes[r]
	b := &t.buckets[pairSlot(n.lo, n.hi, t.shift)]
	n.next = *b
	*b = r
}

// unlink removes node r from its variable's unique table.
func (m *Manager) unlink(r Ref) {
	n := &m.nodes[r]
	t := &m.unique[n.varID]
	p := &t.buckets[pairSlot(n.lo, n.hi, t.shift)]
	for *p != r {
		p = &m.nodes[*p].next
	}
	*p = n.next
	t.count--
}

// growSubtable doubles t's bucket array and rehashes its chains.
func (m *Manager) growSubtable(t *subtable) {
	old := t.buckets
	t.buckets = make([]Ref, 2*len(old))
	t.shift--
	for _, r := range old {
		for r != False {
			next := m.nodes[r].next
			m.push(t, r)
			r = next
		}
	}
}

// cacheSlot hashes a computed-table key into m.cache.
func (m *Manager) cacheSlot(op int32, f, g, h Ref) *entry {
	x := uint32(f)*0x9E3779B1 + uint32(g)
	x = x*0x85EBCA77 + uint32(h)
	x = (x*0xC2B2AE3D + uint32(op)) * 0x27D4EB2F
	return &m.cache[x>>m.cacheShift]
}

// cacheGet looks a result up in the computed table.
func (m *Manager) cacheGet(op int32, f, g, h Ref) (Ref, bool) {
	if e := m.cacheSlot(op, f, g, h); e.op == op+1 && e.f == f && e.g == g && e.h == h {
		m.stats.CacheHits++
		return e.r, true
	}
	m.stats.CacheMisses++
	return False, false
}

// cachePut stores a result in its computed-table slot, overwriting
// whatever the slot held. Losing an entry is safe: it only skips a
// recomputation, which finds every node it needs still in the unique
// tables (nothing is freed between two clears), so it allocates nothing.
func (m *Manager) cachePut(op int32, f, g, h, r Ref) {
	e := m.cacheSlot(op, f, g, h)
	if e.op == 0 {
		m.cacheUsed++
	}
	*e = entry{op: op + 1, f: f, g: g, h: h, r: r}
}

// growCache doubles the computed table and rehashes its entries.
func (m *Manager) growCache() {
	old := m.cache
	m.cache = make([]entry, 2*len(old))
	m.cacheShift--
	m.cacheUsed = 0
	for _, e := range old {
		if e.op != 0 {
			m.cachePut(e.op-1, e.f, e.g, e.h, e.r)
		}
	}
}

// clearCache empties the computed table, which GC must do before it frees
// a node an entry may name.
func (m *Manager) clearCache() {
	if m.cacheUsed > 0 {
		clear(m.cache)
		m.cacheUsed = 0
		m.stats.CacheResets++
	}
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) (Ref, error) { return m.Ite(f, False, True) }

// And returns f AND g.
func (m *Manager) And(f, g Ref) (Ref, error) { return m.apply(opAnd, f, g) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) (Ref, error) { return m.apply(opOr, f, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) (Ref, error) { return m.apply(opXor, f, g) }

func (m *Manager) apply(op int32, f, g Ref) (Ref, error) {
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
	if r, ok := m.cacheGet(op, a, b, False); ok {
		return r, nil
	}
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
	m.cachePut(op, a, b, False, r)
	return r, nil
}

// cofactors returns f's children when f tests variable v, else (f, f).
func (m *Manager) cofactors(f Ref, v int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.varID != v {
		return f, f
	}
	return n.lo, n.hi
}

// Ite returns if-then-else(f, g, h) = f·g + f̄·h.
func (m *Manager) Ite(f, g, h Ref) (Ref, error) {
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
	if r, ok := m.cacheGet(opIte, f, g, h); ok {
		return r, nil
	}
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
	m.cachePut(opIte, f, g, h, r)
	return r, nil
}

// FromCover builds the BDD of an SOP cover where cover variable i is
// represented by inputs[i] (an arbitrary function, enabling composition of
// a local function with its fanins' global functions).
func (m *Manager) FromCover(f *sop.Cover, inputs []Ref) (Ref, error) {
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

// Prob computes the probability that f evaluates to 1 when variable v is 1
// independently with probability p1[v] (Equation 2 of the paper), via a
// single memoized depth-first traversal. p1 is indexed by variable, not by
// order position, so it is stable under reordering.
func (m *Manager) Prob(f Ref, p1 []float64) (float64, error) {
	if len(p1) != m.numVars {
		return 0, &ProbLenError{Got: len(p1), Want: m.numVars}
	}
	memo := make(map[Ref]float64)
	var rec func(g Ref) float64
	rec = func(g Ref) float64 {
		switch g {
		case False:
			return 0
		case True:
			return 1
		}
		if p, ok := memo[g]; ok {
			return p
		}
		n := m.nodes[g]
		pv := p1[n.varID]
		p := pv*rec(n.hi) + (1-pv)*rec(n.lo)
		memo[g] = p
		return p
	}
	return rec(f), nil
}

// AnySat returns one satisfying assignment of f as a cube over all numVars
// variables (don't-care for variables not tested on the chosen path), or
// (nil, false) when f is unsatisfiable. The walk prefers the lo branch, so
// the witness is the lexicographically smallest path in {lo, hi} order; any
// non-False node has at least one branch leading to True by ROBDD
// reducedness.
func (m *Manager) AnySat(f Ref) (sop.Cube, bool) {
	if f == False {
		return nil, false
	}
	cube := sop.NewCube(m.numVars)
	for f != True {
		n := m.nodes[f]
		if n.lo != False {
			cube[n.varID] = sop.Neg
			f = n.lo
		} else {
			cube[n.varID] = sop.Pos
			f = n.hi
		}
	}
	return cube, true
}
