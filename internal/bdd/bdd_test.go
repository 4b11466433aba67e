package bdd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"powermap/internal/sop"
)

// tb wraps a Manager so functional tests can compose operations without
// threading errors; any kernel error fails the test at the call site.
type tb struct {
	t *testing.T
	m *Manager
}

func wrap(t *testing.T, m *Manager) *tb { return &tb{t: t, m: m} }

func (b *tb) ok(r Ref, err error) Ref {
	if err != nil {
		b.t.Helper()
		b.t.Fatalf("bdd op failed: %v", err)
	}
	return r
}

func (b *tb) Var(v int) Ref       { return b.ok(b.m.Var(v)) }
func (b *tb) Not(f Ref) Ref       { return b.ok(b.m.Not(f)) }
func (b *tb) And(f, g Ref) Ref    { return b.ok(b.m.And(f, g)) }
func (b *tb) Or(f, g Ref) Ref     { return b.ok(b.m.Or(f, g)) }
func (b *tb) Xor(f, g Ref) Ref    { return b.ok(b.m.Xor(f, g)) }
func (b *tb) Ite(f, g, h Ref) Ref { return b.ok(b.m.Ite(f, g, h)) }
func (b *tb) FromCover(c *sop.Cover, inputs []Ref) Ref {
	return b.ok(b.m.FromCover(c, inputs))
}
func (b *tb) Prob(f Ref, p []float64) float64 {
	pr, err := b.m.Prob(f, p)
	if err != nil {
		b.t.Helper()
		b.t.Fatalf("Prob failed: %v", err)
	}
	return pr
}
func (b *tb) Eval(f Ref, assign []bool) bool {
	v, err := b.m.Eval(f, assign)
	if err != nil {
		b.t.Helper()
		b.t.Fatalf("Eval failed: %v", err)
	}
	return v
}

func TestTerminals(t *testing.T) {
	m := wrap(t, NewWith(2, Config{}))
	if m.Not(False) != True || m.Not(True) != False {
		t.Fatal("terminal complement broken")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("terminal and/or broken")
	}
}

func TestVarBasics(t *testing.T) {
	m := wrap(t, NewWith(3, Config{}))
	x := m.Var(0)
	if m.And(x, m.Not(x)) != False {
		t.Error("x & !x != 0")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Error("x | !x != 1")
	}
	if m.Xor(x, x) != False {
		t.Error("x ^ x != 0")
	}
}

func TestVarRangeError(t *testing.T) {
	m := NewWith(3, Config{})
	if _, err := m.Var(3); err == nil {
		t.Error("Var(3) on 3-var manager should fail")
	} else {
		var vre *VarRangeError
		if !errors.As(err, &vre) || vre.Var != 3 || vre.NumVars != 3 {
			t.Errorf("want VarRangeError{3,3}, got %v", err)
		}
	}
	if _, err := m.Var(-1); err == nil {
		t.Error("Var(-1) should fail")
	}
}

func TestCanonicity(t *testing.T) {
	m := wrap(t, NewWith(3, Config{}))
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a&b)|c  built two different ways must be pointer-equal.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Or(c, m.And(b, a))
	if f1 != f2 {
		t.Error("equivalent functions got different refs")
	}
	f3 := m.Ite(a, m.Or(b, c), c)
	if f1 != f3 {
		t.Error("ite form differs from or/and form")
	}
}

func TestDeMorgan(t *testing.T) {
	m := wrap(t, NewWith(2, Config{}))
	a, b := m.Var(0), m.Var(1)
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Error("De Morgan violated")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	m := wrap(t, NewWith(4, Config{}))
	vars := []Ref{m.Var(0), m.Var(1), m.Var(2), m.Var(3)}
	// f = (x0 XOR x1) AND (x2 OR !x3)
	f := m.And(m.Xor(vars[0], vars[1]), m.Or(vars[2], m.Not(vars[3])))
	for bits := 0; bits < 16; bits++ {
		assign := []bool{bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0}
		want := (assign[0] != assign[1]) && (assign[2] || !assign[3])
		if m.Eval(f, assign) != want {
			t.Fatalf("eval mismatch at %04b", bits)
		}
	}
}

func TestEvalAssignLenError(t *testing.T) {
	m := NewWith(4, Config{})
	if _, err := m.Eval(True, []bool{true}); err == nil {
		t.Error("short assignment should fail")
	} else {
		var ale *AssignLenError
		if !errors.As(err, &ale) || ale.Got != 1 || ale.Want != 4 {
			t.Errorf("want AssignLenError{1,4}, got %v", err)
		}
	}
}

func TestFromCover(t *testing.T) {
	m := wrap(t, NewWith(3, Config{}))
	f := sop.NewCover(2)
	f.AddCube(sop.Cube{sop.Pos, sop.Pos})
	inputs := []Ref{m.Var(0), m.Var(1)}
	r := m.FromCover(f, inputs)
	if r != m.And(m.Var(0), m.Var(1)) {
		t.Error("FromCover of AND cube wrong")
	}
	// Composition: local AND over (x0 OR x2, x1).
	comp := m.FromCover(f, []Ref{m.Or(m.Var(0), m.Var(2)), m.Var(1)})
	want := m.And(m.Or(m.Var(0), m.Var(2)), m.Var(1))
	if comp != want {
		t.Error("FromCover composition wrong")
	}
	if m.FromCover(sop.Zero(2), inputs) != False {
		t.Error("zero cover != False")
	}
	if m.FromCover(sop.One(2), inputs) != True {
		t.Error("one cover != True")
	}
}

func TestFromCoverWidthError(t *testing.T) {
	m := NewWith(3, Config{})
	c := sop.NewCover(2)
	c.AddCube(sop.Cube{sop.Pos, sop.Pos})
	_, err := m.FromCover(c, []Ref{True})
	if err == nil {
		t.Fatal("width mismatch should fail")
	}
	var cwe *CoverWidthError
	if !errors.As(err, &cwe) || cwe.CoverVars != 2 || cwe.Inputs != 1 {
		t.Errorf("want CoverWidthError{2,1}, got %v", err)
	}
}

func TestProbSimple(t *testing.T) {
	m := wrap(t, NewWith(2, Config{}))
	a, b := m.Var(0), m.Var(1)
	p := []float64{0.3, 0.4}
	if got := m.Prob(m.And(a, b), p); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("P(ab) = %v, want 0.12", got)
	}
	if got := m.Prob(m.Or(a, b), p); math.Abs(got-(0.3+0.4-0.12)) > 1e-12 {
		t.Errorf("P(a+b) = %v", got)
	}
	if got := m.Prob(m.Xor(a, b), p); math.Abs(got-(0.3*0.6+0.7*0.4)) > 1e-12 {
		t.Errorf("P(a^b) = %v", got)
	}
}

func TestProbLenError(t *testing.T) {
	m := NewWith(2, Config{})
	if _, err := m.Prob(True, []float64{0.5}); err == nil {
		t.Fatal("length mismatch should fail")
	} else {
		var ple *ProbLenError
		if !errors.As(err, &ple) || ple.Got != 1 || ple.Want != 2 {
			t.Errorf("want ProbLenError{1,2}, got %v", err)
		}
	}
}

func TestProbReconvergence(t *testing.T) {
	// f = a AND a must have P = p, not p^2: BDDs capture reconvergence.
	m := wrap(t, NewWith(1, Config{}))
	a := m.Var(0)
	f := m.And(a, a)
	if got := m.Prob(f, []float64{0.3}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("P(a&a) = %v, want 0.3", got)
	}
}

// truthProb computes the exact probability by full enumeration.
func truthProb(m *tb, f Ref, p []float64) float64 {
	n := m.m.numVars
	total := 0.0
	assign := make([]bool, n)
	var rec func(i int, w float64)
	rec = func(i int, w float64) {
		if i == n {
			if m.Eval(f, assign) {
				total += w
			}
			return
		}
		assign[i] = false
		rec(i+1, w*(1-p[i]))
		assign[i] = true
		rec(i+1, w*p[i])
	}
	rec(0, 1)
	return total
}

func TestProbMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := wrap(t, NewWith(5, Config{}))
		// Random function from random cover.
		f := sop.NewCover(5)
		for i := 0; i < 1+r.Intn(6); i++ {
			c := sop.NewCube(5)
			for v := range c {
				c[v] = sop.Lit(r.Intn(3))
			}
			f.AddCube(c)
		}
		inputs := make([]Ref, 5)
		for i := range inputs {
			inputs[i] = m.Var(i)
		}
		g := m.FromCover(f, inputs)
		p := make([]float64, 5)
		for i := range p {
			p[i] = r.Float64()
		}
		got := m.Prob(g, p)
		want := truthProb(m, g, p)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Prob=%v enumeration=%v for %v", got, want, f)
		}
	}
}

func TestProbBounds(t *testing.T) {
	// Property: probability is always within [0,1] for probabilities in [0,1].
	check := func(raw [5]uint8, seeds [3]uint8) bool {
		m := wrap(t, NewWith(5, Config{}))
		p := make([]float64, 5)
		for i, b := range raw {
			p[i] = float64(b) / 255
		}
		f := m.Var(int(seeds[0]) % 5)
		f = m.Or(f, m.And(m.Var(int(seeds[1])%5), m.Not(m.Var(int(seeds[2])%5))))
		pr := m.Prob(f, p)
		return pr >= -1e-12 && pr <= 1+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIteIdentities(t *testing.T) {
	m := wrap(t, NewWith(3, Config{}))
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	if m.Ite(a, b, b) != b {
		t.Error("ite(a,b,b) != b")
	}
	if m.Ite(a, True, False) != a {
		t.Error("ite(a,1,0) != a")
	}
	if m.Ite(a, False, True) != m.Not(a) {
		t.Error("ite(a,0,1) != !a")
	}
	lhs := m.Ite(a, b, c)
	rhs := m.Or(m.And(a, b), m.And(m.Not(a), c))
	if lhs != rhs {
		t.Error("ite expansion identity broken")
	}
}

func TestNodeLimitError(t *testing.T) {
	m := NewWith(8, Config{NodeLimit: 4}) // absurdly small: building the conjunction trips it
	f := True
	var err error
	for i := 0; i < 8 && err == nil; i++ {
		var x Ref
		x, err = m.Var(i)
		if err == nil {
			f, err = m.And(f, x)
		}
	}
	if err == nil {
		t.Fatal("expected node-limit error")
	}
	if !errors.Is(err, ErrNodeLimit) {
		t.Errorf("errors.Is(err, ErrNodeLimit) false for %v", err)
	}
	var nle *NodeLimitError
	if !errors.As(err, &nle) || nle.Limit != 4 {
		t.Errorf("want *NodeLimitError with limit 4, got %v", err)
	}
}

// xorChain builds x0 ^ x1 ^ ... ^ x(n-1): linear in any order, handy for
// structural tests.
func xorChain(m *tb, n int) Ref {
	f := False
	for i := 0; i < n; i++ {
		f = m.Xor(f, m.Var(i))
	}
	return f
}

func TestGCReclaimsToRootedSet(t *testing.T) {
	m := wrap(t, NewWith(8, Config{}))
	f := xorChain(m, 8)
	root := m.m.Protect(f)
	m.m.GC() // drop the chain's intermediate prefixes
	rootedSize := m.m.live

	// Pile up garbage: conjunction trees that nothing roots.
	for trial := 0; trial < 4; trial++ {
		g := True
		for i := 0; i < 8; i++ {
			g = m.And(g, m.Or(m.Var(i), m.Var((i+trial+1)%8)))
		}
		_ = g
	}
	if m.m.live <= rootedSize {
		t.Fatal("expected garbage growth before GC")
	}
	m.m.GC()
	if got := m.m.live; got != rootedSize {
		t.Errorf("after GC: %d live nodes, want rooted set %d", got, rootedSize)
	}
	st := m.m.Stats()
	if st.GCRuns != 2 || st.NodesFreed == 0 {
		t.Errorf("stats after GC: %+v", st)
	}
	// The rooted function still works.
	pr := m.Prob(f, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	if math.Abs(pr-0.5) > 1e-12 {
		t.Errorf("P(xor chain) = %v, want 0.5", pr)
	}

	// Releasing the root lets GC take everything.
	root.Release()
	m.m.GC()
	if got := m.m.live; got != 0 {
		t.Errorf("after releasing root: %d live nodes, want 0", got)
	}
}

func TestGCPreservesCanonicity(t *testing.T) {
	m := wrap(t, NewWith(6, Config{}))
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2))
	root := m.m.Protect(f)
	defer root.Release()
	// Garbage, then GC, then rebuild the same function: must be the same Ref.
	_ = xorChain(m, 6)
	m.m.GC()
	g := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2))
	if g != f {
		t.Errorf("rebuilt function got ref %d, want %d", g, f)
	}
}

func TestRootRefcounting(t *testing.T) {
	m := wrap(t, NewWith(4, Config{}))
	f := m.And(m.Var(0), m.Var(1))
	r1 := m.m.Protect(f)
	r2 := m.m.Protect(f)
	if got := len(m.m.roots); got != 1 {
		t.Errorf("%d roots, want 1 distinct", got)
	}
	r1.Release()
	m.m.GC()
	// Still protected through r2.
	if m.m.live == 0 {
		t.Error("node collected while still rooted")
	}
	r2.Release()
	r2.Release() // double release is a no-op
	m.m.GC()
	if m.m.live != 0 {
		t.Error("node survived after all roots released")
	}
}

// TestCacheBound: the computed table is a hard bound on occupancy and a
// pure memo. Under CacheLimit 16 it never holds more than 16 entries,
// evicting as it goes, yet every result equals the Ref an unbounded
// manager computes for the same operations; a GC clears it whole and
// counts in CacheResets.
func TestCacheBound(t *testing.T) {
	bounded := wrap(t, NewWith(10, Config{CacheLimit: 16}))
	free := wrap(t, NewWith(10, Config{CacheLimit: -1}))
	r := rand.New(rand.NewSource(3))
	fs, gs := []Ref{False, True}, []Ref{False, True}
	for i := 0; i < 10; i++ {
		fs, gs = append(fs, bounded.Var(i)), append(gs, free.Var(i))
	}
	for step := 0; step < 400; step++ {
		a, b, c := r.Intn(len(fs)), r.Intn(len(fs)), r.Intn(len(fs))
		var f, g Ref
		switch step % 3 {
		case 0:
			f, g = bounded.Xor(fs[a], fs[b]), free.Xor(gs[a], gs[b])
		case 1:
			f, g = bounded.Or(bounded.And(fs[a], fs[b]), fs[c]), free.Or(free.And(gs[a], gs[b]), gs[c])
		default:
			f, g = bounded.Ite(fs[a], fs[b], fs[c]), free.Ite(gs[a], gs[b], gs[c])
		}
		if f != g {
			t.Fatalf("step %d: bounded manager returned %d, unbounded %d", step, f, g)
		}
		if n := bounded.m.Stats().CacheEntries; n > 16 {
			t.Fatalf("step %d: cache occupancy %d exceeds bound 16", step, n)
		}
		fs, gs = append(fs, f), append(gs, g)
	}
	st, fst := bounded.m.Stats(), free.m.Stats()
	if st.CacheMisses <= fst.CacheMisses {
		t.Errorf("the bound evicted nothing: %d misses bounded, %d unbounded", st.CacheMisses, fst.CacheMisses)
	}
	if st.CacheResets != 0 {
		t.Errorf("%d cache resets before any GC", st.CacheResets)
	}
	bounded.m.GC()
	if st := bounded.m.Stats(); st.CacheResets != 1 || st.CacheEntries != 0 {
		t.Errorf("after GC: %d resets, %d entries; want 1 and 0", st.CacheResets, st.CacheEntries)
	}
}

func TestMaintainTriggersGC(t *testing.T) {
	m := wrap(t, NewWith(8, Config{GCThreshold: 8}))
	f := xorChain(m, 8)
	root := m.m.Protect(f)
	defer root.Release()
	for trial := 0; trial < 3; trial++ {
		g := True
		for i := 0; i < 8; i++ {
			g = m.And(g, m.Xor(m.Var(i), m.Var((i+1+trial)%8)))
		}
		m.m.Maintain()
	}
	if st := m.m.Stats(); st.GCRuns == 0 {
		t.Errorf("Maintain never ran GC: %+v", st)
	}
}

// orderSensitive builds the classic order-sensitive function
// (x0&x1) | (x2&x3) | ... over pairs interleaved badly: with variable
// order x0, xk, x1, xk+1, ... the BDD is exponential in pairs, with the
// paired order it is linear. Sifting must find (near-)linear size.
func orderSensitive(m *tb, pairs int) Ref {
	f := False
	for i := 0; i < pairs; i++ {
		// Partner variables deliberately far apart in index order.
		f = m.Or(f, m.And(m.Var(i), m.Var(pairs+i)))
	}
	return f
}

func TestReorderShrinksOrderSensitiveFunction(t *testing.T) {
	const pairs = 6
	m := wrap(t, NewWith(2*pairs, Config{}))
	f := orderSensitive(m, pairs)
	root := m.m.Protect(f)
	defer root.Release()
	m.m.GC()
	before := m.m.live
	m.m.Reorder()
	after := m.m.live
	if after >= before {
		t.Errorf("sifting did not shrink: %d -> %d nodes", before, after)
	}
	// Optimal size for the paired order is 2 internal nodes per pair.
	if after > 3*pairs {
		t.Errorf("sifting left %d nodes, want near-linear (<= %d)", after, 3*pairs)
	}
	if st := m.m.Stats(); st.ReorderRuns != 1 || st.ReorderSwaps == 0 {
		t.Errorf("reorder stats: %+v", st)
	}
}

func TestReorderPreservesFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		const nv = 7
		m := wrap(t, NewWith(nv, Config{}))
		// Random cover-built functions, all rooted.
		var refs []Ref
		for k := 0; k < 3; k++ {
			c := sop.NewCover(nv)
			for i := 0; i < 1+r.Intn(5); i++ {
				cube := sop.NewCube(nv)
				for v := range cube {
					cube[v] = sop.Lit(r.Intn(3))
				}
				c.AddCube(cube)
			}
			inputs := make([]Ref, nv)
			for i := range inputs {
				inputs[i] = m.Var(i)
			}
			refs = append(refs, m.FromCover(c, inputs))
		}
		// Record truth tables, reorder, compare: Refs must keep their
		// functions bit-for-bit.
		var before [][]bool
		for _, f := range refs {
			row := make([]bool, 1<<nv)
			for bits := range row {
				assign := make([]bool, nv)
				for v := range assign {
					assign[v] = bits&(1<<v) != 0
				}
				row[bits] = m.Eval(f, assign)
			}
			before = append(before, row)
		}
		var roots []*Root
		for _, f := range refs {
			roots = append(roots, m.m.Protect(f))
		}
		m.m.Reorder()
		for k, f := range refs {
			for bits := 0; bits < 1<<nv; bits++ {
				assign := make([]bool, nv)
				for v := range assign {
					assign[v] = bits&(1<<v) != 0
				}
				if got := m.Eval(f, assign); got != before[k][bits] {
					t.Fatalf("trial %d: function %d changed at %07b after reorder", trial, k, bits)
				}
			}
			// Probabilities (variable-indexed) must also be invariant.
			p := make([]float64, nv)
			for i := range p {
				p[i] = 0.25 + 0.5*float64(i)/nv
			}
			pr := m.Prob(f, p)
			pw := truthProb(m, f, p)
			if math.Abs(pr-pw) > 1e-9 {
				t.Fatalf("trial %d: Prob drifted after reorder: %v vs %v", trial, pr, pw)
			}
		}
		for _, rt := range roots {
			rt.Release()
		}
	}
}

func TestReorderKeepsCanonicity(t *testing.T) {
	m := wrap(t, NewWith(8, Config{}))
	f := orderSensitive(m, 4)
	root := m.m.Protect(f)
	defer root.Release()
	m.m.Reorder()
	// Rebuilding the same function after reorder must hit the same Ref.
	g := orderSensitive(m, 4)
	if g != f {
		t.Errorf("rebuilt ref %d != original %d after reorder", g, f)
	}
	// And the unique tables must be self-consistent: one more GC keeps
	// exactly the rooted set.
	m.m.GC()
	h := orderSensitive(m, 4)
	if h != f {
		t.Errorf("rebuilt ref %d != original %d after reorder+GC", h, f)
	}
}

func TestMaintainTriggersReorder(t *testing.T) {
	m := wrap(t, NewWith(12, Config{Reorder: true, ReorderThreshold: 8, GCThreshold: -1}))
	f := orderSensitive(m, 6)
	root := m.m.Protect(f)
	defer root.Release()
	m.m.Maintain()
	if st := m.m.Stats(); st.ReorderRuns == 0 {
		t.Errorf("Maintain never reordered: %+v", st)
	}
	// Function survives.
	assign := make([]bool, 12)
	assign[0], assign[6] = true, true
	if !m.Eval(f, assign) {
		t.Error("function broken after Maintain reorder")
	}
}

// order is the current variable order: element l is the variable at
// level l (tested l-th from the top).
func order(m *Manager) []int {
	out := make([]int, m.numVars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

func TestOrderReportsPermutation(t *testing.T) {
	m := wrap(t, NewWith(4, Config{}))
	ord := order(m.m)
	if len(ord) != 4 {
		t.Fatalf("order length %d", len(ord))
	}
	seen := make(map[int]bool)
	for _, v := range ord {
		if v < 0 || v >= 4 || seen[v] {
			t.Fatalf("order %v is not a permutation", ord)
		}
		seen[v] = true
	}
	f := orderSensitive(m, 2)
	rt := m.m.Protect(f)
	defer rt.Release()
	m.m.Reorder()
	ord = order(m.m)
	seen = make(map[int]bool)
	for _, v := range ord {
		if v < 0 || v >= 4 || seen[v] {
			t.Fatalf("post-reorder order %v is not a permutation", ord)
		}
		seen[v] = true
	}
}

func TestNodeLimitDuringReorderIsSafe(t *testing.T) {
	// A swap that would exceed the limit must abort cleanly, leaving every
	// rooted function intact.
	m := wrap(t, NewWith(8, Config{}))
	f := orderSensitive(m, 4)
	rt := m.m.Protect(f)
	defer rt.Release()
	m.m.GC()
	m.m.limit = m.m.live // no headroom at all
	m.m.Reorder()
	assign := make([]bool, 8)
	assign[1], assign[5] = true, true
	if !m.Eval(f, assign) {
		t.Error("function broken after limited reorder")
	}
}
