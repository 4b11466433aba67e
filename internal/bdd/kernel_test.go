package bdd

import (
	"math/rand"
	"slices"
	"testing"

	"powermap/internal/sop"
)

// lockstep drives the flat-table kernel and the map-based reference
// (mapref_test.go) through the same operations. Refs are slot numbers, so
// the pool holds Refs that must mean the same node in both.
type lockstep struct {
	t        *testing.T
	r        *rand.Rand
	m        *Manager
	ref      *mapManager
	cfg      Config
	pool     []Ref
	roots    []*Root
	refRoots []*mapRoot
	rooted   []Ref
	limits   int // node-limit errors seen
}

func newLockstep(t *testing.T, seed int64, nv int, cfg Config) *lockstep {
	return &lockstep{
		t:    t,
		r:    rand.New(rand.NewSource(seed)),
		m:    NewWith(nv, cfg),
		ref:  newMapManager(nv, cfg),
		cfg:  cfg,
		pool: []Ref{False, True},
	}
}

// pick draws a pooled Ref, half the time one of the newest eight, so
// functions compound into graphs that reach the node limits.
func (k *lockstep) pick() Ref {
	if k.r.Intn(2) == 0 {
		return k.pool[len(k.pool)-1-k.r.Intn(min(len(k.pool), 8))]
	}
	return k.pool[k.r.Intn(len(k.pool))]
}

// result compares one operation's outcome in both kernels and pools it.
func (k *lockstep) result(op string, got, want Ref, gerr, werr error) {
	k.t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		k.t.Fatalf("%s: error %v, reference %v", op, gerr, werr)
	}
	if got != want {
		k.t.Fatalf("%s: Ref %d, reference %d", op, got, want)
	}
	if IsNodeLimit(gerr) {
		k.limits++
	}
	if gerr == nil {
		if len(k.pool) == 64 {
			k.pool = slices.Delete(k.pool, 0, 1)
		}
		k.pool = append(k.pool, got)
	}
}

// collected drops every unrooted Ref from the pool once a collection (by
// GC, Maintain or Reorder) has invalidated them.
func (k *lockstep) collected(runs int64) {
	if k.m.Stats().GCRuns != runs {
		k.pool = append([]Ref{False, True}, k.rooted...)
	}
}

// step runs one random operation on both kernels.
func (k *lockstep) step(nv int) string {
	k.t.Helper()
	switch c := k.r.Intn(100); {
	case c < 10:
		v := k.r.Intn(nv + 1) // nv itself is out of range
		got, gerr := k.m.Var(v)
		want, werr := k.ref.Var(v)
		k.result("Var", got, want, gerr, werr)
		return "Var"
	case c < 25:
		f, g := k.pick(), k.pick()
		got, gerr := k.m.And(f, g)
		want, werr := k.ref.And(f, g)
		k.result("And", got, want, gerr, werr)
		return "And"
	case c < 38:
		f, g := k.pick(), k.pick()
		got, gerr := k.m.Or(f, g)
		want, werr := k.ref.Or(f, g)
		k.result("Or", got, want, gerr, werr)
		return "Or"
	case c < 48:
		f, g := k.pick(), k.pick()
		got, gerr := k.m.Xor(f, g)
		want, werr := k.ref.Xor(f, g)
		k.result("Xor", got, want, gerr, werr)
		return "Xor"
	case c < 58:
		f, g, h := k.pick(), k.pick(), k.pick()
		got, gerr := k.m.Ite(f, g, h)
		want, werr := k.ref.Ite(f, g, h)
		k.result("Ite", got, want, gerr, werr)
		return "Ite"
	case c < 63:
		f := k.pick()
		got, gerr := k.m.Not(f)
		want, werr := k.ref.Not(f)
		k.result("Not", got, want, gerr, werr)
		return "Not"
	case c < 72:
		n := 1 + k.r.Intn(3)
		cover := sop.NewCover(n)
		for i := 0; i < 1+k.r.Intn(3); i++ {
			cube := sop.NewCube(n)
			for v := range cube {
				cube[v] = sop.Lit(k.r.Intn(3))
			}
			cover.AddCube(cube)
		}
		inputs := make([]Ref, n)
		for i := range inputs {
			inputs[i] = k.pick()
		}
		got, gerr := k.m.FromCover(cover, inputs)
		want, werr := k.ref.FromCover(cover, inputs)
		k.result("FromCover", got, want, gerr, werr)
		return "FromCover"
	case c < 80:
		f := k.pick()
		k.roots = append(k.roots, k.m.Protect(f))
		k.refRoots = append(k.refRoots, k.ref.Protect(f))
		k.rooted = append(k.rooted, f)
		return "Protect"
	case c < 86:
		if len(k.roots) == 0 {
			return "Release"
		}
		i := k.r.Intn(len(k.roots))
		k.roots[i].Release()
		k.refRoots[i].Release()
		if k.r.Intn(4) == 0 {
			k.roots[i].Release() // double release is a no-op
			k.refRoots[i].Release()
		}
		k.roots = slices.Delete(k.roots, i, i+1)
		k.refRoots = slices.Delete(k.refRoots, i, i+1)
		k.rooted = slices.Delete(k.rooted, i, i+1)
		return "Release"
	case c < 88:
		runs := k.m.Stats().GCRuns
		k.m.GC()
		k.ref.GC()
		k.collected(runs)
		return "GC"
	case c < 98:
		runs := k.m.Stats().GCRuns
		k.m.Maintain()
		k.ref.Maintain()
		k.collected(runs)
		return "Maintain"
	default:
		runs := k.m.Stats().GCRuns
		k.m.Reorder()
		k.ref.Reorder()
		k.collected(runs)
		return "Reorder"
	}
}

// same fails unless both kernels hold the same node store, order and
// counters.
func (k *lockstep) same(op string, i int) {
	k.t.Helper()
	st, ws := k.m.Stats(), k.ref.Stats()
	type counters struct{ Allocs, Live, PeakLive, GCRuns, NodesFreed, ReorderRuns, ReorderSwaps int64 }
	got := counters{st.Allocs, st.Live, st.PeakLive, st.GCRuns, st.NodesFreed, st.ReorderRuns, st.ReorderSwaps}
	want := counters{ws.Allocs, ws.Live, ws.PeakLive, ws.GCRuns, ws.NodesFreed, ws.ReorderRuns, ws.ReorderSwaps}
	if got != want {
		k.t.Fatalf("step %d (%s): counters %+v, reference %+v", i, op, got, want)
	}
	if k.cfg.CacheLimit > 0 && st.CacheEntries > int64(k.cfg.CacheLimit) {
		k.t.Fatalf("step %d (%s): computed table holds %d entries, CacheLimit %d", i, op, st.CacheEntries, k.cfg.CacheLimit)
	}
	if !slices.Equal(k.m.level2var, k.ref.level2var) {
		k.t.Fatalf("step %d (%s): order %v, reference %v", i, op, k.m.level2var, k.ref.level2var)
	}
	if len(k.m.nodes) != len(k.ref.nodes) || !slices.Equal(k.m.free, k.ref.free) {
		k.t.Fatalf("step %d (%s): %d slots / free list %v, reference %d / %v", i, op,
			len(k.m.nodes), k.m.free, len(k.ref.nodes), k.ref.free)
	}
	count := make([]int, len(k.m.unique))
	for r, n := range k.m.nodes {
		w := k.ref.nodes[r]
		if n.varID != w.varID || n.lo != w.lo || n.hi != w.hi || n.rc != w.rc {
			k.t.Fatalf("step %d (%s): node %d is %+v, reference %+v", i, op, r, n, w)
		}
		if r > int(True) && n.varID != varFree {
			count[n.varID]++
		}
	}
	// Every live node is findable in its own chain, and nothing else is.
	for v, tab := range k.m.unique {
		if tab.count != count[v] || tab.count != len(k.ref.unique[v]) {
			k.t.Fatalf("step %d (%s): variable %d table holds %d nodes, store %d, reference %d",
				i, op, v, tab.count, count[v], len(k.ref.unique[v]))
		}
		for key, r := range k.ref.unique[v] {
			if got, ok := k.m.lookup(int32(v), key.lo, key.hi); !ok || got != r {
				k.t.Fatalf("step %d (%s): (%d, %d, %d) not found as %d", i, op, v, key.lo, key.hi, r)
			}
		}
	}
}

// TestKernelMatchesMapReference is the differential oracle of the flat
// tables: on random sequences of And/Or/Xor/Ite/Not/FromCover,
// Protect/Release, GC, Maintain and Reorder, under node and cache limits
// tight enough that node-limit errors, evictions, collections and sifting
// all happen, the kernel must return the reference's Refs and errors and
// keep its node store, variable order and node counters identical.
func TestKernelMatchesMapReference(t *testing.T) {
	configs := []Config{
		{NodeLimit: 10, CacheLimit: 4, GCThreshold: 8},
		{NodeLimit: 20, CacheLimit: 16, GCThreshold: 12, Reorder: true, ReorderThreshold: 8},
		{NodeLimit: 60, CacheLimit: 1, GCThreshold: -1, Reorder: true, ReorderThreshold: 12},
		{NodeLimit: 400, CacheLimit: -1, GCThreshold: 64},
		{},
	}
	ops := map[string]int{}
	var limits int
	var swaps int64
	for ci, cfg := range configs {
		for seed := int64(0); seed < 50; seed++ {
			nv := 4 + int(seed)%6
			k := newLockstep(t, seed*31+int64(ci), nv, cfg)
			for i := 0; i < 400; i++ {
				op := k.step(nv)
				ops[op]++
				k.same(op, i)
			}
			limits += k.limits
			swaps += k.m.Stats().ReorderSwaps
		}
	}
	t.Logf("operations %v; %d node-limit errors, %d swaps", ops, limits, swaps)
	if limits == 0 || swaps == 0 {
		t.Fatalf("vacuous run: %d node-limit errors, %d swaps", limits, swaps)
	}
}
