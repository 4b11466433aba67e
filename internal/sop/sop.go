// Package sop implements sum-of-products (SOP) representations of
// single-output logic functions: cubes over a positional variable space and
// covers (sets of cubes), together with the algebraic operations required by
// technology-independent optimization and technology decomposition.
//
// A cube assigns each variable one of three values: positive literal,
// negative literal, or don't-care (absent). A cover is the OR of its cubes.
// Variables are identified by small non-negative integers; the mapping from
// integers to named signals is maintained by the network layer.
package sop

import (
	"fmt"
	"sort"
	"strings"
)

// Lit is the value a cube assigns to one variable.
type Lit byte

const (
	// DC marks a variable that does not appear in the cube.
	DC Lit = iota
	// Pos marks a positive literal (variable must be 1).
	Pos
	// Neg marks a negative literal (variable must be 0).
	Neg
)

// String returns "-", "1" or "0" in the usual PLA notation.
func (l Lit) String() string {
	switch l {
	case Pos:
		return "1"
	case Neg:
		return "0"
	default:
		return "-"
	}
}

// Cube is a product term over variables 0..n-1. The zero-length cube is the
// tautology (constant 1 product).
type Cube []Lit

// NewCube returns an all-don't-care cube over n variables.
func NewCube(n int) Cube { return make(Cube, n) }

// Clone returns a copy of c.
func (c Cube) Clone() Cube {
	d := make(Cube, len(c))
	copy(d, c)
	return d
}

// NumLiterals counts the literals (non-DC positions) in c.
func (c Cube) NumLiterals() int {
	n := 0
	for _, l := range c {
		if l != DC {
			n++
		}
	}
	return n
}

// Contains reports whether c contains d, i.e. every minterm of d is a
// minterm of c. This holds when every literal of c appears identically in d.
func (c Cube) Contains(d Cube) bool {
	for v, l := range c {
		if l != DC && d[v] != l {
			return false
		}
	}
	return true
}

// Intersect returns the intersection cube of c and d and true, or nil and
// false when the cubes are disjoint (some variable has opposite literals).
func (c Cube) Intersect(d Cube) (Cube, bool) {
	out := make(Cube, len(c))
	for v := range c {
		switch {
		case c[v] == DC:
			out[v] = d[v]
		case d[v] == DC || d[v] == c[v]:
			out[v] = c[v]
		default:
			return nil, false
		}
	}
	return out, true
}

// Eval evaluates the cube under a full assignment (true = 1).
func (c Cube) Eval(assign []bool) bool {
	for v, l := range c {
		switch l {
		case Pos:
			if !assign[v] {
				return false
			}
		case Neg:
			if assign[v] {
				return false
			}
		}
	}
	return true
}

// Distance1 reports whether c and d conflict in exactly one variable, which
// makes them mergeable by the consensus rule when all other positions agree.
func (c Cube) Distance1(d Cube) (int, bool) {
	conflict := -1
	for v := range c {
		if c[v] != d[v] {
			if c[v] == DC || d[v] == DC {
				return -1, false
			}
			if conflict >= 0 {
				return -1, false
			}
			conflict = v
		}
	}
	return conflict, conflict >= 0
}

// String renders the cube in PLA input-plane notation ("10-1...").
func (c Cube) String() string {
	var b strings.Builder
	for _, l := range c {
		b.WriteString(l.String())
	}
	return b.String()
}

// Cover is an SOP: the OR of its cubes over a fixed variable count.
// A Cover with no cubes is the constant-0 function; a cover containing the
// tautology cube is constant 1 (after minimization).
type Cover struct {
	NumVars int
	Cubes   []Cube
}

// NewCover returns an empty (constant-0) cover over n variables.
func NewCover(n int) *Cover { return &Cover{NumVars: n} }

// Zero returns the constant-0 cover over n variables.
func Zero(n int) *Cover { return NewCover(n) }

// One returns the constant-1 cover over n variables.
func One(n int) *Cover {
	c := NewCover(n)
	c.Cubes = []Cube{NewCube(n)}
	return c
}

// FromLiteral returns the single-literal cover for variable v, positive when
// pos is true.
func FromLiteral(n, v int, pos bool) *Cover {
	c := NewCover(n)
	cube := NewCube(n)
	if pos {
		cube[v] = Pos
	} else {
		cube[v] = Neg
	}
	c.Cubes = []Cube{cube}
	return c
}

// Clone deep-copies the cover.
func (f *Cover) Clone() *Cover {
	g := NewCover(f.NumVars)
	g.Cubes = make([]Cube, len(f.Cubes))
	for i, c := range f.Cubes {
		g.Cubes[i] = c.Clone()
	}
	return g
}

// AddCube appends a cube, which must have the cover's variable count.
func (f *Cover) AddCube(c Cube) {
	if len(c) != f.NumVars {
		panic(fmt.Sprintf("sop: cube width %d != cover width %d", len(c), f.NumVars))
	}
	f.Cubes = append(f.Cubes, c)
}

// IsZero reports whether the cover is the constant-0 function syntactically.
func (f *Cover) IsZero() bool { return len(f.Cubes) == 0 }

// IsOne reports whether some cube is the tautology cube. (This is a
// syntactic check; a cover may be a tautology without containing the
// all-DC cube.)
func (f *Cover) IsOne() bool {
	for _, c := range f.Cubes {
		if c.NumLiterals() == 0 {
			return true
		}
	}
	return false
}

// Eval evaluates the cover under a full assignment.
func (f *Cover) Eval(assign []bool) bool {
	for _, c := range f.Cubes {
		if c.Eval(assign) {
			return true
		}
	}
	return false
}

// Support returns the ascending variable indices on which f syntactically
// depends.
func (f *Cover) Support() []int {
	seen := make(map[int]bool)
	for _, c := range f.Cubes {
		for v, l := range c {
			if l != DC {
				seen[v] = true
			}
		}
	}
	vars := make([]int, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	return vars
}

// NumLiterals returns the total literal count over all cubes, the standard
// SOP cost measure.
func (f *Cover) NumLiterals() int {
	n := 0
	for _, c := range f.Cubes {
		n += c.NumLiterals()
	}
	return n
}

// Minimize applies single-cube containment and distance-1 merging until a
// fixed point, in place. It makes the representation irredundant with
// respect to these two cheap rules (not a full two-level minimization).
func (f *Cover) Minimize() {
	changed := true
	for changed {
		changed = f.removeContained()
		if f.mergeDistance1() {
			changed = true
		}
	}
	f.sortCubes()
}

func (f *Cover) removeContained() bool {
	changed := false
	out := f.Cubes[:0]
	for i, c := range f.Cubes {
		contained := false
		for j, d := range f.Cubes {
			if i == j {
				continue
			}
			// Drop c when d contains it; break ties by index to keep one copy
			// of identical cubes.
			if d.Contains(c) && (!c.Contains(d) || j < i) {
				contained = true
				break
			}
		}
		if contained {
			changed = true
		} else {
			out = append(out, c)
		}
	}
	f.Cubes = out
	return changed
}

func (f *Cover) mergeDistance1() bool {
	changed := false
	for i := 0; i < len(f.Cubes); i++ {
		for j := i + 1; j < len(f.Cubes); j++ {
			v, ok := f.Cubes[i].Distance1(f.Cubes[j])
			if !ok {
				continue
			}
			merged := f.Cubes[i].Clone()
			merged[v] = DC
			f.Cubes[i] = merged
			f.Cubes = append(f.Cubes[:j], f.Cubes[j+1:]...)
			changed = true
			j--
		}
	}
	return changed
}

// sortCubes orders the cubes as their PLA strings sort.
func (f *Cover) sortCubes() {
	sort.Slice(f.Cubes, func(i, j int) bool { return cubeLess(f.Cubes[i], f.Cubes[j]) })
}

// cubeLess reports whether a.String() < b.String(): literals compare in
// PLA character order, "-" < "0" < "1" (DC < Neg < Pos), then the shorter
// cube comes first.
func cubeLess(a, b Cube) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if ra, rb := plaRank(a[i]), plaRank(b[i]); ra != rb {
			return ra < rb
		}
	}
	return len(a) < len(b)
}

func plaRank(l Lit) int {
	switch l {
	case Neg:
		return 1
	case Pos:
		return 2
	default:
		return 0
	}
}

// MinimizeStrong applies an Espresso-style expand/irredundant pass: each
// cube is expanded literal by literal against the off-set (any literal
// whose removal keeps the cube disjoint from ¬f is raised to don't-care),
// containment then removes swallowed cubes, and a final irredundancy pass
// drops cubes covered by the union of the others. Cost includes one
// complement, so this is intended for the small node-local functions of
// the synthesis flow; Minimize remains the cheap default.
func (f *Cover) MinimizeStrong() {
	f.Minimize()
	if f.IsZero() || f.IsOne() {
		return
	}
	off := f.Complement()
	// Expand cubes (in place) against the off-set.
	for i, c := range f.Cubes {
		expanded := c.Clone()
		for v := range expanded {
			if expanded[v] == DC {
				continue
			}
			trial := expanded.Clone()
			trial[v] = DC
			if !intersectsAny(trial, off.Cubes) {
				expanded = trial
			}
		}
		f.Cubes[i] = expanded
	}
	f.Minimize()
	// Irredundant: drop cubes covered by the union of the remaining ones.
	for i := 0; i < len(f.Cubes); i++ {
		if cubeCoveredByOthers(f.Cubes[i], f.Cubes, i, f.NumVars) {
			f.Cubes = append(f.Cubes[:i], f.Cubes[i+1:]...)
			i--
		}
	}
	f.sortCubes()
}

func intersectsAny(c Cube, cubes []Cube) bool {
	for _, d := range cubes {
		if _, ok := c.Intersect(d); ok {
			return true
		}
	}
	return false
}

// cubeCoveredByOthers reports whether cube i is contained in the union of
// the other cubes, by checking that the union cofactored against cube i is
// a tautology.
func cubeCoveredByOthers(c Cube, cubes []Cube, skip, numVars int) bool {
	reduced := NewCover(numVars)
	for j, d := range cubes {
		if j == skip {
			continue
		}
		x, ok := c.Intersect(d)
		if !ok {
			continue
		}
		// Express x relative to c: erase c's fixed literals, keeping d's
		// extra constraints over c's free variables.
		rc := x.Clone()
		for v, l := range c {
			if l != DC {
				rc[v] = DC
			}
		}
		reduced.AddCube(rc)
	}
	return reduced.IsTautology()
}

// Cofactor returns f with variable v fixed to the given value: cubes whose
// v-literal conflicts are dropped, and v is erased from the rest.
func (f *Cover) Cofactor(v int, value bool) *Cover {
	g := NewCover(f.NumVars)
	want := Neg
	if value {
		want = Pos
	}
	for _, c := range f.Cubes {
		if c[v] != DC && c[v] != want {
			continue
		}
		d := c.Clone()
		d[v] = DC
		g.Cubes = append(g.Cubes, d)
	}
	return g
}

// Or returns the disjunction of f and g (same variable count).
func (f *Cover) Or(g *Cover) *Cover {
	if f.NumVars != g.NumVars {
		panic("sop: Or over mismatched variable counts")
	}
	h := f.Clone()
	for _, c := range g.Cubes {
		h.Cubes = append(h.Cubes, c.Clone())
	}
	return h
}

// And returns the conjunction of f and g by cube-wise intersection.
func (f *Cover) And(g *Cover) *Cover {
	if f.NumVars != g.NumVars {
		panic("sop: And over mismatched variable counts")
	}
	h := NewCover(f.NumVars)
	for _, c := range f.Cubes {
		for _, d := range g.Cubes {
			if x, ok := c.Intersect(d); ok {
				h.Cubes = append(h.Cubes, x)
			}
		}
	}
	h.Minimize()
	return h
}

// IsTautology reports whether f ≡ 1, using the classic unate-recursive
// paradigm: unate covers are tautologies exactly when they contain the
// all-don't-care cube, and binate covers split on their most binate
// variable.
func (f *Cover) IsTautology() bool {
	if f.IsZero() {
		return false
	}
	if f.IsOne() {
		return true
	}
	v, binate := f.mostBinateVar()
	if !binate {
		// Unate cover: tautology iff some cube is all-DC, already checked
		// by IsOne above.
		return false
	}
	return f.Cofactor(v, false).IsTautology() && f.Cofactor(v, true).IsTautology()
}

// mostBinateVar returns the variable appearing in the most cubes among
// those appearing in both phases, or (any most-frequent var, false) when
// the cover is unate.
func (f *Cover) mostBinateVar() (int, bool) {
	pos := make(map[int]int)
	neg := make(map[int]int)
	for _, c := range f.Cubes {
		for v, l := range c {
			switch l {
			case Pos:
				pos[v]++
			case Neg:
				neg[v]++
			}
		}
	}
	best, bestCount := -1, 0
	for v, p := range pos {
		if n := neg[v]; n > 0 {
			if p+n > bestCount {
				best, bestCount = v, p+n
			}
		}
	}
	if best >= 0 {
		return best, true
	}
	return f.mostFrequentVar(), false
}

// Complement returns the complement of f as an SOP, computed by recursive
// Shannon expansion on the most frequent support variable. Cost can be
// exponential in the support size; it is intended for the small local node
// functions handled by the synthesis flow.
func (f *Cover) Complement() *Cover {
	if f.IsZero() {
		return One(f.NumVars)
	}
	if f.IsOne() {
		return Zero(f.NumVars)
	}
	v := f.mostFrequentVar()
	c0 := f.Cofactor(v, false).Complement().And(FromLiteral(f.NumVars, v, false))
	c1 := f.Cofactor(v, true).Complement().And(FromLiteral(f.NumVars, v, true))
	out := c0.Or(c1)
	out.Minimize()
	return out
}

func (f *Cover) mostFrequentVar() int {
	counts := make(map[int]int)
	for _, c := range f.Cubes {
		for v, l := range c {
			if l != DC {
				counts[v]++
			}
		}
	}
	best, bestCount := -1, -1
	for v, n := range counts {
		if n > bestCount || (n == bestCount && v < best) {
			best, bestCount = v, n
		}
	}
	return best
}

// String renders the cover as '+'-joined cubes, or "0" when empty.
func (f *Cover) String() string {
	if f.IsZero() {
		return "0"
	}
	parts := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		parts[i] = c.String()
	}
	return strings.Join(parts, " + ")
}

// Equal reports semantic equality of f and g by exhaustive evaluation over
// the union support. It is intended for tests and small covers; cost is
// O(2^support).
func (f *Cover) Equal(g *Cover) bool {
	if f.NumVars != g.NumVars {
		return false
	}
	vars := unionInts(f.Support(), g.Support())
	assign := make([]bool, f.NumVars)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return f.Eval(assign) == g.Eval(assign)
		}
		assign[vars[i]] = false
		if !rec(i + 1) {
			return false
		}
		assign[vars[i]] = true
		return rec(i + 1)
	}
	return rec(0)
}

func unionInts(a, b []int) []int {
	seen := make(map[int]bool)
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
