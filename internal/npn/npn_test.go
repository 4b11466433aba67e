package npn

import (
	"fmt"
	"math/rand"
	"testing"
)

// permuteRows, canonicalRows and automorphismsRows are the row-by-row
// reference implementations the word-parallel kernel must reproduce
// exactly, ties included: they rebuild every candidate table one row at a
// time in the same perm-major, flip-minor, plain-before-negated order.

func permuteRows(f uint64, n int, perm [Max]uint8) uint64 {
	size := 1 << uint(n)
	var g uint64
	for x := 0; x < size; x++ {
		y := 0
		for j := 0; j < n; j++ {
			y |= int(x>>perm[j]&1) << uint(j)
		}
		if f>>uint(y)&1 == 1 {
			g |= 1 << uint(x)
		}
	}
	return g
}

func canonicalRows(f uint64, n int) (uint64, Transform) {
	f &= Mask(n)
	size := 1 << uint(n)
	mask := Mask(n)
	best := f
	bestT := Identity()
	found := false
	for _, perm := range permsByN[n] {
		fp := permuteRows(f, n, perm)
		for fx := 0; fx < size; fx++ {
			// g(x) = fp(x ^ fx); fx in the post-permutation input space.
			var g uint64
			for x := 0; x < size; x++ {
				if fp>>uint(x^fx)&1 == 1 {
					g |= 1 << uint(x)
				}
			}
			for neg := 0; neg < 2; neg++ {
				cand := g
				if neg == 1 {
					cand = ^g & mask
				}
				if !found || cand < best {
					best = cand
					bestT = Transform{Perm: perm, Flips: flipFor(perm, fx), NegOut: neg == 1}
					found = true
				}
			}
		}
	}
	return best, bestT
}

func automorphismsRows(f uint64, n int, limit int) []Transform {
	f &= Mask(n)
	size := 1 << uint(n)
	mask := Mask(n)
	var out []Transform
	for _, perm := range permsByN[n] {
		fp := permuteRows(f, n, perm)
		for fx := 0; fx < size; fx++ {
			var g uint64
			for x := 0; x < size; x++ {
				if fp>>uint(x^fx)&1 == 1 {
					g |= 1 << uint(x)
				}
			}
			if g == f {
				out = append(out, Transform{Perm: perm, Flips: flipFor(perm, fx)})
			} else if ^g&mask == f {
				out = append(out, Transform{Perm: perm, Flips: flipFor(perm, fx), NegOut: true})
			}
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// matchRows fails the test unless Canonical and Automorphisms return
// exactly what the row-by-row references return for f: the same
// representative, the same transform, and the same automorphism lists
// element by element at every given limit.
func matchRows(t *testing.T, f uint64, n int, limits ...int) {
	t.Helper()
	rep, tr := Canonical(f, n)
	wantRep, wantTr := canonicalRows(f, n)
	if rep != wantRep || tr != wantTr {
		t.Fatalf("n=%d f=%#x: Canonical = (%#x, %+v), rows give (%#x, %+v)",
			n, f, rep, tr, wantRep, wantTr)
	}
	for _, limit := range limits {
		for _, g := range []uint64{f, rep} {
			got, want := Automorphisms(g, n, limit), automorphismsRows(g, n, limit)
			if len(got) != len(want) {
				t.Fatalf("n=%d f=%#x limit %d: %d automorphisms, rows give %d",
					n, g, limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d f=%#x limit %d: automorphism %d is %+v, rows give %+v",
						n, g, limit, i, got[i], want[i])
				}
			}
		}
	}
}

// tieHeavy returns n-input functions with large automorphism groups, where
// many transforms reach the representative and only the scan order picks
// one: constants, projections, XOR/XNOR chains, majority, and AND/OR of
// random input subsets under random input phases.
func tieHeavy(r *rand.Rand, n int) []uint64 {
	mask := Mask(n)
	fs := []uint64{0, mask}
	var parity uint64
	for i := 0; i < n; i++ {
		fs = append(fs, Var(i, n), ^Var(i, n)&mask)
		parity ^= Var(i, n)
		fs = append(fs, parity, ^parity&mask)
	}
	var maj uint64
	for x := 0; x < 1<<uint(n); x++ {
		ones := 0
		for i := 0; i < n; i++ {
			ones += x >> uint(i) & 1
		}
		if 2*ones > n {
			maj |= 1 << uint(x)
		}
	}
	fs = append(fs, maj, ^maj&mask)
	for k := 0; k < 8; k++ {
		and, or := mask, uint64(0)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				continue
			}
			v := Var(i, n)
			if r.Intn(2) == 0 {
				v = ^v & mask
			}
			and &= v
			or |= v
		}
		fs = append(fs, and, or)
	}
	return fs
}

// TestCanonicalMatchesRows pins the word-parallel kernel to the row-by-row
// references: exhaustively for n <= 3, on seeded random tables for n = 4..6,
// and on tie-heavy functions for n = 4..6. Automorphism lists are compared
// at limits 1 and 64 (the mapper's cap), and unbounded for n <= 4.
func TestCanonicalMatchesRows(t *testing.T) {
	for n := 0; n <= 3; n++ {
		for f := uint64(0); f < 1<<(1<<uint(n)); f++ {
			matchRows(t, f, n, 1, 64, 0)
		}
	}
	r := rand.New(rand.NewSource(2024))
	for _, c := range []struct{ n, count int }{{4, 200}, {5, 60}, {6, 20}} {
		n := c.n
		limits := []int{1, 64}
		if n <= 4 {
			limits = append(limits, 0)
		}
		for i := 0; i < c.count; i++ {
			f := r.Uint64() & Mask(n)
			if i%2 == 1 {
				// Sparse tables: few minterms, many near-ties.
				f &= r.Uint64() & r.Uint64()
			}
			matchRows(t, f, n, limits...)
		}
		for _, f := range tieHeavy(r, n) {
			matchRows(t, f, n, limits...)
		}
	}
}

// allTransforms enumerates every NPN transform over n inputs:
// n! permutations x 2^n input flips x 2 output phases.
func allTransforms(n int) []Transform {
	var out []Transform
	for _, perm := range permsByN[n] {
		for fl := 0; fl < 1<<uint(n); fl++ {
			for neg := 0; neg < 2; neg++ {
				out = append(out, Transform{Perm: perm, Flips: uint8(fl), NegOut: neg == 1})
			}
		}
	}
	return out
}

// TestCanonicalExhaustiveSmall brute-forces every function of n <= 3 inputs
// against every member of its NPN orbit: all class members must
// canonicalize to the same representative, the representative must be in
// the orbit, and the returned transform must actually produce it.
func TestCanonicalExhaustiveSmall(t *testing.T) {
	for n := 0; n <= 3; n++ {
		ts := allTransforms(n)
		size := uint64(1) << (1 << uint(n))
		for f := uint64(0); f < size; f++ {
			rep, tr := Canonical(f, n)
			if got := tr.Apply(f, n); got != rep {
				t.Fatalf("n=%d f=%#x: transform gives %#x, want rep %#x", n, f, got, rep)
			}
			for _, u := range ts {
				g := u.Apply(f, n)
				if rep2, _ := Canonical(g, n); rep2 != rep {
					t.Fatalf("n=%d f=%#x: orbit member %#x canonicalizes to %#x, want %#x",
						n, f, g, rep2, rep)
				}
				if g < rep {
					t.Fatalf("n=%d f=%#x: orbit member %#x below representative %#x", n, f, g, rep)
				}
			}
		}
	}
}

// TestCanonicalOrbitN4 samples functions of 4 inputs and checks the full
// orbit (24 x 16 x 2 = 768 transforms) agrees on one representative.
func TestCanonicalOrbitN4(t *testing.T) {
	r := rand.New(rand.NewSource(1993))
	ts := allTransforms(4)
	for i := 0; i < 300; i++ {
		f := r.Uint64() & Mask(4)
		rep, tr := Canonical(f, 4)
		if got := tr.Apply(f, 4); got != rep {
			t.Fatalf("f=%#x: transform gives %#x, want %#x", f, got, rep)
		}
		for _, u := range ts {
			g := u.Apply(f, 4)
			if rep2, _ := Canonical(g, 4); rep2 != rep {
				t.Fatalf("f=%#x: orbit member %#x canonicalizes to %#x, want %#x", f, g, rep2, rep)
			}
		}
	}
}

// TestTransformAlgebra proves Invert and Compose against Apply on random
// functions for every n: round-trips restore f, and composition equals
// sequential application.
func TestTransformAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= Max; n++ {
		for i := 0; i < 50; i++ {
			f := r.Uint64() & Mask(n)
			a := randTransform(r, n)
			b := randTransform(r, n)
			if got := a.Invert().Apply(a.Apply(f, n), n); got != f {
				t.Fatalf("n=%d: invert round-trip %#x != %#x (t=%+v)", n, got, f, a)
			}
			if got := a.Apply(a.Invert().Apply(f, n), n); got != f {
				t.Fatalf("n=%d: reverse invert round-trip %#x != %#x", n, got, f)
			}
			want := a.Apply(b.Apply(f, n), n)
			if got := Compose(a, b).Apply(f, n); got != want {
				t.Fatalf("n=%d: compose(a,b) gives %#x, want a(b(f)) = %#x", n, got, want)
			}
		}
	}
}

func randTransform(r *rand.Rand, n int) Transform {
	tr := Identity()
	perm := r.Perm(n)
	for j, p := range perm {
		tr.Perm[j] = uint8(p)
	}
	tr.Flips = uint8(r.Intn(1 << uint(n)))
	tr.NegOut = r.Intn(2) == 1
	return tr
}

// TestAutomorphisms checks the automorphism group on known functions and
// that every returned transform fixes the function.
func TestAutomorphisms(t *testing.T) {
	and2 := uint64(0b1000) // x0 & x1
	auts := Automorphisms(and2, 2, 0)
	// AND2 is fixed only by the two input permutations (no flip/negation
	// pattern maps AND back to AND).
	if len(auts) != 2 {
		t.Fatalf("AND2 automorphisms: got %d, want 2 (%+v)", len(auts), auts)
	}
	xor2 := uint64(0b0110)
	auts = Automorphisms(xor2, 2, 0)
	// XOR2: 2 perms x {no flips; both flips; one flip + output negation x2}.
	if len(auts) != 8 {
		t.Fatalf("XOR2 automorphisms: got %d, want 8", len(auts))
	}
	for _, f := range []uint64{and2, xor2, 0b11010010} {
		n := 3
		if f < 16 {
			n = 2
		}
		for _, u := range Automorphisms(f, n, 0) {
			if got := u.Apply(f, n); got != f {
				t.Fatalf("automorphism %+v moves %#x to %#x", u, f, got)
			}
		}
	}
	if got := Automorphisms(xor2, 2, 3); len(got) != 3 {
		t.Fatalf("limit ignored: got %d transforms, want 3", len(got))
	}
	id := Automorphisms(and2, 2, 1)[0]
	if id != Identity() {
		t.Fatalf("first automorphism %+v is not the identity", id)
	}
}

// TestSupportReduce checks vacuous-input elimination.
func TestSupportReduce(t *testing.T) {
	// f(x0,x1,x2) = x0 & x2 — x1 vacuous.
	var f uint64
	for x := 0; x < 8; x++ {
		if x&1 == 1 && x&4 != 0 {
			f |= 1 << uint(x)
		}
	}
	sup := Support(f, 3)
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 2 {
		t.Fatalf("support: got %v, want [0 2]", sup)
	}
	g, kept := Reduce(f, 3)
	if g != 0b1000 || len(kept) != 2 {
		t.Fatalf("reduce: got %#x over %v, want 0x8 over [0 2]", g, kept)
	}
	// Constant functions reduce to empty support.
	if g, kept := Reduce(0, 4); g != 0 || len(kept) != 0 {
		t.Fatalf("constant reduce: got %#x over %v", g, kept)
	}
	// Full-support functions come back unchanged.
	if g, kept := Reduce(0b0110, 2); g != 0b0110 || len(kept) != 2 {
		t.Fatalf("full-support reduce: got %#x over %v", g, kept)
	}
}

// TestVarProjection pins the projection tables the AIG cut evaluator
// builds leaf functions from.
func TestVarProjection(t *testing.T) {
	if got := Var(0, 2); got != 0b1010 {
		t.Fatalf("Var(0,2) = %#b", got)
	}
	if got := Var(1, 2); got != 0b1100 {
		t.Fatalf("Var(1,2) = %#b", got)
	}
	for i := 0; i < Max; i++ {
		f := Var(i, Max)
		if sup := Support(f, Max); len(sup) != 1 || sup[0] != i {
			t.Fatalf("Var(%d): support %v", i, sup)
		}
	}
}

// TestFlipInputs checks the exported block-swap flip against row-by-row
// evaluation of f(x ^ flips) for every n and flip vector.
func TestFlipInputs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= Max; n++ {
		f := r.Uint64() & Mask(n)
		for fl := 0; fl < 1<<uint(n); fl++ {
			var want uint64
			for x := 0; x < 1<<uint(n); x++ {
				want |= f >> uint(x^fl) & 1 << uint(x)
			}
			if got := FlipInputs(f, n, uint8(fl)); got != want {
				t.Fatalf("n=%d f=%#x flips=%#b: got %#x, want %#x", n, f, fl, got, want)
			}
		}
	}
}

// FuzzCanonical fuzzes the canonicalizer up to n = 6: for arbitrary f and
// an arbitrary orbit member of it (permutation index, input flips and
// output phase each fuzzed independently), both must canonicalize to the
// same representative, never above the input, exactly as the row-by-row
// reference does.
func FuzzCanonical(f *testing.F) {
	f.Add(uint64(0b0110_1001), uint8(3), uint16(0x15), uint8(0x15), true)
	f.Add(uint64(0xcafebabe_deadbeef), uint8(6), uint16(0), uint8(0), false)
	f.Add(uint64(0x8000), uint8(4), uint16(0xff), uint8(0xff), true)
	// n = 6 with permutation indices past 255, unreachable when the index
	// shared one byte with the flips.
	f.Add(uint64(0x0123_4567_89ab_cdef), uint8(6), uint16(257), uint8(0x2a), false)
	f.Add(uint64(0xe8e8_8080_fee8_e880), uint8(6), uint16(719), uint8(0x3f), true)
	f.Fuzz(func(t *testing.T, tt uint64, nRaw uint8, permIdx uint16, flips uint8, neg bool) {
		n := int(nRaw % (Max + 1))
		tt &= Mask(n)
		rep, tr := Canonical(tt, n)
		if got := tr.Apply(tt, n); got != rep {
			t.Fatalf("n=%d f=%#x: transform does not reach rep: %#x != %#x", n, tt, got, rep)
		}
		if rep > tt {
			t.Fatalf("n=%d f=%#x: representative %#x above input", n, tt, rep)
		}
		// Derive one orbit member from the fuzzed transform and check
		// agreement.
		perms := permsByN[n]
		u := Transform{
			Perm:   perms[int(permIdx)%len(perms)],
			Flips:  flips & uint8(1<<uint(n)-1),
			NegOut: neg,
		}
		g := u.Apply(tt, n)
		rep2, _ := Canonical(g, n)
		if rep2 != rep {
			t.Fatalf("n=%d f=%#x: orbit member %#x gives rep %#x, want %#x", n, tt, g, rep2, rep)
		}
		for _, h := range []uint64{tt, g} {
			gotRep, gotTr := Canonical(h, n)
			wantRep, wantTr := canonicalRows(h, n)
			if gotRep != wantRep || gotTr != wantTr {
				t.Fatalf("n=%d f=%#x: Canonical = (%#x, %+v), rows give (%#x, %+v)",
					n, h, gotRep, gotTr, wantRep, wantTr)
			}
		}
	})
}

// benchTables returns fixed seeded n-input tables for the kernel benches.
func benchTables(n int) []uint64 {
	r := rand.New(rand.NewSource(1993))
	fs := make([]uint64, 16)
	for i := range fs {
		fs[i] = r.Uint64() & Mask(n)
	}
	return fs
}

func BenchmarkCanonical(b *testing.B) {
	for n := 4; n <= Max; n++ {
		fs := benchTables(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Canonical(fs[i%len(fs)], n)
			}
		})
	}
}

// BenchmarkAutomorphisms enumerates the automorphisms of canonical
// representatives at the mapper's cap of 64, as matching does.
func BenchmarkAutomorphisms(b *testing.B) {
	for n := 4; n <= Max; n++ {
		fs := benchTables(n)
		for i, f := range fs {
			fs[i], _ = Canonical(f, n)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Automorphisms(fs[i%len(fs)], n, 64)
			}
		})
	}
}
