package sop

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cube(s string) Cube {
	c := NewCube(len(s))
	for i, ch := range s {
		switch ch {
		case '1':
			c[i] = Pos
		case '0':
			c[i] = Neg
		case '-':
			c[i] = DC
		default:
			panic("bad cube char")
		}
	}
	return c
}

func coverOf(n int, cubes ...string) *Cover {
	f := NewCover(n)
	for _, s := range cubes {
		f.AddCube(cube(s))
	}
	return f
}

func TestLitString(t *testing.T) {
	if Pos.String() != "1" || Neg.String() != "0" || DC.String() != "-" {
		t.Fatalf("unexpected literal strings %q %q %q", Pos, Neg, DC)
	}
}

func TestCubeContains(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"1--", "1--", true},
		{"1--", "11-", true},
		{"11-", "1--", false},
		{"---", "010", true},
		{"0--", "1--", false},
	}
	for _, tc := range cases {
		if got := cube(tc.a).Contains(cube(tc.b)); got != tc.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCubeIntersect(t *testing.T) {
	x, ok := cube("1-0").Intersect(cube("-10"))
	if !ok || x.String() != "110" {
		t.Fatalf("intersect = %v %v, want 110 true", x, ok)
	}
	if _, ok := cube("1--").Intersect(cube("0--")); ok {
		t.Fatal("disjoint cubes reported as intersecting")
	}
}

func TestCubeEval(t *testing.T) {
	c := cube("1-0")
	if !c.Eval([]bool{true, false, false}) {
		t.Error("100 should satisfy 1-0")
	}
	if c.Eval([]bool{true, true, true}) {
		t.Error("111 should not satisfy 1-0")
	}
	if !NewCube(3).Eval([]bool{false, false, false}) {
		t.Error("tautology cube must accept everything")
	}
}

func TestCubeDistance1(t *testing.T) {
	if v, ok := cube("10-").Distance1(cube("11-")); !ok || v != 1 {
		t.Errorf("distance1(10-,11-) = %d,%v want 1,true", v, ok)
	}
	if _, ok := cube("10-").Distance1(cube("01-")); ok {
		t.Error("distance-2 cubes reported distance-1")
	}
	if _, ok := cube("10-").Distance1(cube("1--")); ok {
		t.Error("DC mismatch must not count as distance-1")
	}
}

func TestCoverConstants(t *testing.T) {
	if !Zero(3).IsZero() {
		t.Error("Zero not zero")
	}
	if !One(3).IsOne() {
		t.Error("One not one")
	}
	if One(3).IsZero() || Zero(3).IsOne() {
		t.Error("constant confusion")
	}
}

func TestFromLiteral(t *testing.T) {
	f := FromLiteral(3, 1, true)
	if !f.Eval([]bool{false, true, false}) || f.Eval([]bool{true, false, true}) {
		t.Error("positive literal mis-evaluates")
	}
	g := FromLiteral(3, 1, false)
	if g.Eval([]bool{false, true, false}) || !g.Eval([]bool{true, false, true}) {
		t.Error("negative literal mis-evaluates")
	}
}

func TestMinimizeContainment(t *testing.T) {
	f := coverOf(3, "1--", "11-", "110")
	f.Minimize()
	if len(f.Cubes) != 1 || f.Cubes[0].String() != "1--" {
		t.Fatalf("minimize = %v, want single cube 1--", f)
	}
}

func TestMinimizeDistance1(t *testing.T) {
	f := coverOf(2, "10", "11")
	f.Minimize()
	if len(f.Cubes) != 1 || f.Cubes[0].String() != "1-" {
		t.Fatalf("minimize merge = %v, want 1-", f)
	}
}

func TestMinimizeDuplicate(t *testing.T) {
	f := coverOf(2, "1-", "1-")
	f.Minimize()
	if len(f.Cubes) != 1 {
		t.Fatalf("duplicate cubes not collapsed: %v", f)
	}
}

func TestCofactor(t *testing.T) {
	f := coverOf(3, "11-", "0-1")
	g := f.Cofactor(0, true)
	want := coverOf(3, "-1-")
	if !g.Equal(want) {
		t.Errorf("cofactor(0,1) = %v, want %v", g, want)
	}
	h := f.Cofactor(0, false)
	if !h.Equal(coverOf(3, "--1")) {
		t.Errorf("cofactor(0,0) = %v", h)
	}
}

func TestAndOr(t *testing.T) {
	a := FromLiteral(2, 0, true)
	b := FromLiteral(2, 1, true)
	and := a.And(b)
	if !and.Equal(coverOf(2, "11")) {
		t.Errorf("a&b = %v", and)
	}
	or := a.Or(b)
	if !or.Equal(coverOf(2, "1-", "-1")) {
		t.Errorf("a|b = %v", or)
	}
}

func TestSupportAndLiterals(t *testing.T) {
	f := coverOf(4, "1--0", "-1--")
	sup := f.Support()
	if len(sup) != 3 || sup[0] != 0 || sup[1] != 1 || sup[2] != 3 {
		t.Errorf("support = %v", sup)
	}
	if f.NumLiterals() != 3 {
		t.Errorf("literals = %d, want 3", f.NumLiterals())
	}
}

func TestEqualSemantics(t *testing.T) {
	// x0 XOR written two ways.
	a := coverOf(2, "10", "01")
	b := coverOf(2, "01", "10")
	if !a.Equal(b) {
		t.Error("reordered covers should be equal")
	}
	if a.Equal(coverOf(2, "11")) {
		t.Error("xor != and")
	}
}

func TestComplementProperty(t *testing.T) {
	// Property: f OR f' is a tautology and f AND f' is empty, semantically.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		f := randomCover(r, 4, 1+r.Intn(4))
		fc := f.Complement()
		union := f.Or(fc)
		if !union.Equal(One(4)) {
			t.Fatalf("f + f' != 1 for %v (complement %v)", f, fc)
		}
		inter := f.And(fc)
		if !inter.Equal(Zero(4)) {
			t.Fatalf("f · f' != 0 for %v", f)
		}
	}
}

func TestMinimizeStrongExpands(t *testing.T) {
	// f = ab + a!b ∪ !a b = ... classic: f = ab + !ab + a!b should reduce
	// to a + b (expand merges across distance > 1).
	f := coverOf(2, "11", "01", "10")
	f.MinimizeStrong()
	want := coverOf(2, "1-", "-1")
	if !f.Equal(want) {
		t.Errorf("MinimizeStrong = %v, want a + b", f)
	}
	if f.NumLiterals() != 2 {
		t.Errorf("literal count %d, want 2", f.NumLiterals())
	}
}

func TestMinimizeStrongIrredundant(t *testing.T) {
	// ab + !a c + b c: the consensus term bc is redundant.
	f := coverOf(3, "11-", "0-1", "-11")
	f.MinimizeStrong()
	if len(f.Cubes) > 2 {
		t.Errorf("redundant cube not removed: %v", f)
	}
	if !f.Equal(coverOf(3, "11-", "0-1")) {
		t.Errorf("function changed: %v", f)
	}
}

func TestMinimizeStrongPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		f := randomCover(r, 5, 1+r.Intn(6))
		g := f.Clone()
		g.MinimizeStrong()
		if !f.Equal(g) {
			t.Fatalf("MinimizeStrong changed function: %v -> %v", f, g)
		}
		if g.NumLiterals() > f.NumLiterals() {
			t.Fatalf("MinimizeStrong grew literals: %v -> %v", f, g)
		}
	}
}

func TestMinimizeStrongConstants(t *testing.T) {
	z := Zero(3)
	z.MinimizeStrong()
	if !z.IsZero() {
		t.Error("zero changed")
	}
	o := One(3)
	o.MinimizeStrong()
	if !o.IsOne() {
		t.Error("one changed")
	}
	// A cover that is secretly a tautology must not break.
	taut := coverOf(1, "1", "0")
	taut.MinimizeStrong()
	if !taut.Equal(One(1)) {
		t.Errorf("tautology mishandled: %v", taut)
	}
}

func TestIsTautology(t *testing.T) {
	cases := []struct {
		f    *Cover
		want bool
	}{
		{One(2), true},
		{Zero(2), false},
		{coverOf(1, "1", "0"), true},               // x + !x
		{coverOf(2, "1-", "01"), false},            // x0 + !x0·x1 misses 00
		{coverOf(2, "1-", "0-"), true},             // x0 + !x0
		{coverOf(2, "11", "10", "01", "00"), true}, // all minterms
		{coverOf(3, "1--", "-1-", "00-"), true},    // covers everything
		{coverOf(3, "1--", "-1-", "001"), false},   // misses 000
		{FromLiteral(2, 0, true), false},
	}
	for i, tc := range cases {
		if got := tc.f.IsTautology(); got != tc.want {
			t.Errorf("case %d (%v): IsTautology = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}

func TestIsTautologyMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		f := randomCover(r, 4, 1+r.Intn(6))
		want := f.Equal(One(4))
		if got := f.IsTautology(); got != want {
			t.Fatalf("IsTautology(%v) = %v, enumeration says %v", f, got, want)
		}
	}
}

func TestComplementConstants(t *testing.T) {
	if !Zero(2).Complement().IsOne() {
		t.Error("!0 != 1")
	}
	if !One(2).Complement().IsZero() {
		t.Error("!1 != 0")
	}
}

func TestCoverString(t *testing.T) {
	if got := Zero(2).String(); got != "0" {
		t.Errorf("Zero string %q", got)
	}
	f := coverOf(2, "10", "01")
	if got := f.String(); got != "10 + 01" {
		t.Errorf("cover string %q", got)
	}
}

func TestAddCubePanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width mismatch must panic")
		}
	}()
	NewCover(3).AddCube(NewCube(2))
}

func TestLiterals(t *testing.T) {
	c := cube("1-0")
	if n := c.NumLiterals(); n != 2 || c[0] != Pos || c[1] != DC || c[2] != Neg {
		t.Errorf("cube 1-0: %v with %d literals", c, n)
	}
	d := c.Clone()
	d[0] = DC
	if c[0] == DC {
		t.Error("Clone aliases storage")
	}
}

// randomCover builds a random cover for property tests.
func randomCover(r *rand.Rand, nvars, ncubes int) *Cover {
	f := NewCover(nvars)
	for i := 0; i < ncubes; i++ {
		c := NewCube(nvars)
		for v := range c {
			c[v] = Lit(r.Intn(3))
		}
		f.AddCube(c)
	}
	return f
}

func TestMinimizePreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		f := randomCover(r, 5, 1+r.Intn(6))
		g := f.Clone()
		g.Minimize()
		if !f.Equal(g) {
			t.Fatalf("minimize changed function: %v -> %v", f, g)
		}
	}
}

func TestCofactorShannon(t *testing.T) {
	// Property: f = x*f_x + x'*f_x' for random covers.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		f := randomCover(r, 4, 1+r.Intn(5))
		v := r.Intn(4)
		fx := f.Cofactor(v, true).And(FromLiteral(4, v, true))
		fnx := f.Cofactor(v, false).And(FromLiteral(4, v, false))
		if !fx.Or(fnx).Equal(f) {
			t.Fatalf("Shannon expansion failed for %v on var %d", f, v)
		}
	}
}

func TestQuickIntersectSound(t *testing.T) {
	// Property: any assignment satisfying the intersection satisfies both.
	f := func(raw [6]byte, assignBits byte) bool {
		a, b := NewCube(3), NewCube(3)
		for i := 0; i < 3; i++ {
			a[i] = Lit(raw[i] % 3)
			b[i] = Lit(raw[3+i] % 3)
		}
		x, ok := a.Intersect(b)
		assign := []bool{assignBits&1 != 0, assignBits&2 != 0, assignBits&4 != 0}
		if !ok {
			// Disjoint: no assignment may satisfy both.
			return !(a.Eval(assign) && b.Eval(assign))
		}
		if x.Eval(assign) != (a.Eval(assign) && b.Eval(assign)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeLessMatchesPLAOrder(t *testing.T) {
	// sortCubes must order cubes exactly as their PLA strings did, so
	// Minimize keeps the same permutation.
	r := rand.New(rand.NewSource(71))
	randomCube := func(n int) Cube {
		c := NewCube(n)
		for i := range c {
			c[i] = Lit(r.Intn(3))
		}
		return c
	}
	for trial := 0; trial < 20000; trial++ {
		a := randomCube(r.Intn(8))
		b := randomCube(len(a))
		if trial%2 == 1 {
			b = randomCube(r.Intn(8))
		}
		// Share a prefix half the time, so ties decide on later literals
		// or on length.
		if trial%4 >= 2 {
			copy(b, a[:r.Intn(len(a)+1)])
		}
		if got, want := cubeLess(a, b), a.String() < b.String(); got != want {
			t.Fatalf("cubeLess(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}
