// Package npn classifies Boolean functions of up to 6 inputs under NPN
// equivalence: input Negation, input Permutation, and output Negation.
// Functions are truth tables packed into a uint64, bit x holding f(x) with
// input i contributing bit i of the row index x.
//
// Two functions are NPN-equivalent iff one can be obtained from the other
// by permuting inputs, complementing a subset of inputs, and optionally
// complementing the output. Canonical picks a unique representative per
// class (the numerically smallest reachable truth table), so a single
// equality on representatives decides Boolean matchability between a cut
// function and a library cell — the core of the mapper's cut backend.
package npn

import "math/bits"

// Max is the largest supported input count; truth tables of up to 2^6 =
// 64 rows fit one uint64.
const Max = 6

// Transform is one NPN transformation. Applying it to f yields
//
//	g(x_0..x_{n-1}) = f(y_0..y_{n-1}) ^ NegOut,  y_j = x_{Perm[j]} ^ Flips_j
//
// i.e. input j of f is driven by input Perm[j] of g, complemented when bit
// j of Flips is set. Entries Perm[j] for j >= n are kept at j so transforms
// over the same n compose without carrying n around.
type Transform struct {
	Perm   [Max]uint8
	Flips  uint8
	NegOut bool
}

// Identity returns the identity transform.
func Identity() Transform {
	var t Transform
	for j := range t.Perm {
		t.Perm[j] = uint8(j)
	}
	return t
}

// Mask returns the valid truth-table bits for n inputs.
func Mask(n int) uint64 {
	if n >= Max {
		return ^uint64(0)
	}
	return 1<<(1<<uint(n)) - 1
}

// Var returns the projection function of input i over n inputs: the truth
// table of f(x) = x_i.
func Var(i, n int) uint64 {
	var f uint64
	for x := 0; x < 1<<uint(n); x++ {
		if x>>uint(i)&1 == 1 {
			f |= 1 << uint(x)
		}
	}
	return f
}

// Apply applies the transform to an n-input truth table.
func (t Transform) Apply(f uint64, n int) uint64 {
	size := 1 << uint(n)
	var g uint64
	for x := 0; x < size; x++ {
		y := int(t.Flips) & (size - 1)
		for j := 0; j < n; j++ {
			y ^= int(x>>t.Perm[j]&1) << uint(j)
		}
		if f>>uint(y)&1 == 1 {
			g |= 1 << uint(x)
		}
	}
	if t.NegOut {
		g = ^g & Mask(n)
	}
	return g
}

// Invert returns the inverse transform: Invert(t).Apply(t.Apply(f, n), n)
// == f for every n-input f.
func (t Transform) Invert() Transform {
	var inv Transform
	for j, p := range t.Perm {
		inv.Perm[p] = uint8(j)
		if t.Flips>>uint(j)&1 == 1 {
			inv.Flips |= 1 << p
		}
	}
	inv.NegOut = t.NegOut
	return inv
}

// Compose returns the transform c with c.Apply(f, n) == a.Apply(b.Apply(f,
// n), n): first b rewires f's inputs, then a rewires the result's.
func Compose(a, b Transform) Transform {
	var c Transform
	for j := range c.Perm {
		bp := b.Perm[j]
		c.Perm[j] = a.Perm[bp]
		fl := a.Flips>>bp&1 ^ b.Flips>>uint(j)&1
		c.Flips |= fl << uint(j)
	}
	c.NegOut = a.NegOut != b.NegOut
	return c
}

// permsByN[n] holds all permutations of 0..n-1 in lexicographic order, each
// extended to Max entries with the identity tail.
var permsByN [Max + 1][][Max]uint8

func init() {
	for n := 0; n <= Max; n++ {
		permsByN[n] = genPerms(n)
	}
}

func genPerms(n int) [][Max]uint8 {
	base := Identity().Perm
	var out [][Max]uint8
	var rec func(p [Max]uint8, k int)
	rec = func(p [Max]uint8, k int) {
		if k == n {
			out = append(out, p)
			return
		}
		for j := k; j < n; j++ {
			q := p
			// Rotate element j into position k, keeping the remainder in
			// ascending order so the emission order is lexicographic.
			v := q[j]
			copy(q[k+1:j+1], p[k:j])
			q[k] = v
			rec(q, k+1)
		}
	}
	rec(base, 0)
	return out
}

// lo[i] selects the truth-table rows with input i clear: bit x is set iff
// bit i of x is 0.
var lo = [Max]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// flipInput complements input i of a table: h(x) = g(x ^ 2^i). Each block
// of 2^i rows with input i clear trades places with the block above it.
func flipInput(g uint64, i int) uint64 {
	s := uint(1) << uint(i)
	return (g&lo[i])<<s | (g>>s)&lo[i]
}

// FlipInputs complements the inputs of an n-input table named by the low n
// bits of flips: h(x) = f(x ^ flips).
func FlipInputs(f uint64, n int, flips uint8) uint64 {
	f &= Mask(n)
	for fl := uint(flips) & (1<<uint(n) - 1); fl != 0; fl &= fl - 1 {
		f = flipInput(f, bits.TrailingZeros(fl))
	}
	return f
}

// swapInputs exchanges inputs i < j of a table with one delta swap: the
// rows with input i set and input j clear trade places with the rows d =
// 2^j - 2^i above them, which have input i clear and input j set.
func swapInputs(g uint64, i, j int) uint64 {
	d := uint(1)<<uint(j) - uint(1)<<uint(i)
	m := ^lo[i] & lo[j]
	t := (g>>d ^ g) & m
	return g ^ t ^ t<<d
}

// permute returns f with inputs rewired by perm alone (no flips, no output
// negation): g(x) = f(y), y_j = x_{perm[j]}, i.e. input j of f moves to
// position perm[j]. Placing the inputs one by one, each with one input
// swap, never disturbs an input already placed, so at most n-1 swaps build
// g.
func permute(f uint64, n int, perm [Max]uint8) uint64 {
	// at[k] is the input of f now at position k; pos[i] is where input i is.
	at, pos := Identity().Perm, Identity().Perm
	for j := 0; j < n-1; j++ {
		k, p := perm[j], pos[j]
		if k == p {
			continue
		}
		f = swapInputs(f, int(min(k, p)), int(max(k, p)))
		i := at[k]
		at[k], at[p] = uint8(j), i
		pos[j], pos[i] = k, p
	}
	return f
}

// flipTables fills tt[fx] = g(x ^ fx) for every flip vector fx < 2^n of an
// n-input table g. For fx < 2^i, tt[2^i + fx] is tt[fx] with input i
// flipped, so each table costs one block swap.
func flipTables(tt *[1 << Max]uint64, g uint64, n int) {
	tt[0] = g
	for i := 0; i < n; i++ {
		s := 1 << uint(i)
		for fx := 0; fx < s; fx++ {
			tt[s+fx] = flipInput(tt[fx], i)
		}
	}
}

// flipFor converts a flip vector fx over the inputs of the permuted table
// (g(x) = permute(f, n, perm)(x ^ fx)) into Transform.Flips, which is over
// the inputs of f: input j of f is driven by input perm[j] of g, so it is
// complemented exactly when bit perm[j] of fx is set.
func flipFor(perm [Max]uint8, fx int) uint8 {
	var fl uint8
	for j := 0; j < Max; j++ {
		fl |= uint8(fx>>perm[j]&1) << uint(j)
	}
	return fl
}

// Canonical returns the canonical NPN representative of an n-input truth
// table — the numerically smallest table reachable by any Transform — and
// one transform t with t.Apply(f, n) == rep. The choice of t among ties is
// deterministic (first in perm-major, flip-minor, plain-before-negated
// order), so canonicalization is reproducible across runs.
func Canonical(f uint64, n int) (uint64, Transform) {
	f &= Mask(n)
	size := 1 << uint(n)
	mask := Mask(n)
	perms := permsByN[n]
	// The first candidate in scan order is f itself under the identity, so
	// seeding best with it and keeping only strictly smaller tables makes
	// the first minimum win.
	best, bestPerm, bestFx, bestNeg := f, 0, 0, false
	var tt [1 << Max]uint64
	for pi, perm := range perms {
		flipTables(&tt, permute(f, n, perm), n)
		for fx, g := range tt[:size] {
			if g < best {
				best, bestPerm, bestFx, bestNeg = g, pi, fx, false
			}
			if c := ^g & mask; c < best {
				best, bestPerm, bestFx, bestNeg = c, pi, fx, true
			}
		}
	}
	perm := perms[bestPerm]
	return best, Transform{Perm: perm, Flips: flipFor(perm, bestFx), NegOut: bestNeg}
}

// Automorphisms returns transforms t with t.Apply(f, n) == f, in the same
// deterministic order Canonical scans, up to limit entries (limit <= 0
// means no bound). The identity is always first. Matching composes these
// with the canonicalizing transforms to reach every input binding of a
// matched cell, not just one.
func Automorphisms(f uint64, n int, limit int) []Transform {
	f &= Mask(n)
	size := 1 << uint(n)
	mask := Mask(n)
	var out []Transform
	var tt [1 << Max]uint64
	for _, perm := range permsByN[n] {
		flipTables(&tt, permute(f, n, perm), n)
		for fx, g := range tt[:size] {
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

// Support returns the indices of inputs f actually depends on, ascending.
func Support(f uint64, n int) []int {
	f &= Mask(n)
	var sup []int
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		for x := 0; x < 1<<uint(n); x++ {
			if uint64(x)&bit != 0 {
				continue
			}
			if f>>uint(x)&1 != f>>(uint(x)|uint(bit))&1 {
				sup = append(sup, i)
				break
			}
		}
	}
	return sup
}

// Reduce projects f onto its support: it returns the equivalent truth
// table over m = len(support) inputs plus the original indices, so
// vacuous cut leaves drop out before canonicalization and functions land
// in the class of their true arity.
func Reduce(f uint64, n int) (uint64, []int) {
	sup := Support(f, n)
	if len(sup) == n {
		return f & Mask(n), sup
	}
	var g uint64
	for x := 0; x < 1<<uint(len(sup)); x++ {
		full := 0
		for i, s := range sup {
			full |= int(x>>uint(i)&1) << uint(s)
		}
		if f>>uint(full)&1 == 1 {
			g |= 1 << uint(x)
		}
	}
	return g, sup
}
