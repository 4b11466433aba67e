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
// external root handles (Protect/Release), the computed table is size
// bounded and cleared on GC, and the variable order can be improved at run
// time by Rudell-style sifting (Reorder), either explicitly or
// automatically on live-node growth via Maintain.
//
// A Ref identifies a function, not a storage slot: garbage collection and
// reordering both preserve the Ref → function mapping of every live
// reference, so callers may hold Refs across GC (if rooted) and across
// reorder (always).
//
// The manager is not safe for concurrent use.
package bdd

import "powermap/internal/sop"

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
// tracked separately in the root table.
type node struct {
	varID  int32
	lo, hi Ref
	rc     int32
}

// varFree marks a reclaimed slot on the free list.
const varFree = int32(-1)

type pair struct {
	lo, hi Ref
}

type cacheKey struct {
	op      int32
	f, g, h Ref
}

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
	// CacheLimit bounds the computed-table entry count; when full the
	// table is cleared (counted in Stats.CacheResets). 0 selects
	// DefaultCacheLimit; negative leaves the table unbounded.
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
	// CacheResets counts computed-table clears (size bound or GC);
	// CacheEntries is the current occupancy.
	CacheResets  int64
	CacheEntries int64
}

// Manager owns a forest of ROBDD nodes over a dynamic variable order.
// Variable v initially has level v; Reorder may move it.
type Manager struct {
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

// NewWith returns a manager over numVars variables tuned by cfg.
func NewWith(numVars int, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
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
func (m *Manager) Stats() Stats {
	st := m.stats
	st.Live = int64(m.live)
	st.CacheEntries = int64(len(m.computed))
	return st
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
func (m *Manager) alloc(v int32, lo, hi Ref) (Ref, error) {
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
func (m *Manager) cachePut(k cacheKey, r Ref) {
	if m.cacheLimit > 0 && len(m.computed) >= m.cacheLimit {
		m.computed = make(map[cacheKey]Ref)
		m.stats.CacheResets++
	}
	m.computed[k] = r
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
