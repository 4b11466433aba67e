package genlib

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestParseExprBasics(t *testing.T) {
	cases := []struct {
		in   string
		vars int
	}{
		{"a", 1},
		{"!a", 1},
		{"a*b", 2},
		{"a+b", 2},
		{"!(a*b)", 2},
		{"a*b+c*d", 4},
		{"!((a+b)*c)", 3},
		{"a'*b", 2},
		{"a b", 2}, // implicit AND
	}
	for _, tc := range cases {
		e, err := ParseExpr(tc.in)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.in, err)
			continue
		}
		if got := len(e.Vars()); got != tc.vars {
			t.Errorf("ParseExpr(%q): %d vars, want %d", tc.in, got, tc.vars)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("a+b*c")
	if err != nil {
		t.Fatal(err)
	}
	// a OR (b AND c): true when a=1, b=0, c=0.
	if !e.Eval(map[string]bool{"a": true}) {
		t.Error("precedence broken: a should dominate")
	}
	if e.Eval(map[string]bool{"b": true}) {
		t.Error("b alone should not satisfy a+b*c")
	}
	if !e.Eval(map[string]bool{"b": true, "c": true}) {
		t.Error("b*c should satisfy a+b*c")
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, in := range []string{"", "(a", "a+", "a)", "*a", "CONST1"} {
		if _, err := ParseExpr(in); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", in)
		}
	}
}

func TestNormalizeFlattens(t *testing.T) {
	e, err := ParseExpr("a*(b*c)*d")
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != OpAnd || len(e.Kids) != 4 {
		t.Errorf("flattening failed: %v", e)
	}
	e2, err := ParseExpr("!!a")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Op != OpVar {
		t.Errorf("double negation not collapsed: %v", e2)
	}
}

// evalPattern evaluates a pattern as a NAND2/INV tree over pin values.
func evalPattern(p *Pattern, pins []bool) bool {
	switch p.Kind {
	case PatLeaf:
		return pins[p.Pin]
	case PatInv:
		return !evalPattern(p.L, pins)
	default:
		return !(evalPattern(p.L, pins) && evalPattern(p.R, pins))
	}
}

func TestPatternsComputeCellFunction(t *testing.T) {
	lib := Lib2()
	for _, c := range lib.Cells {
		n := c.NumInputs()
		if len(c.Patterns) == 0 {
			t.Errorf("cell %s has no patterns", c.Name)
			continue
		}
		for bits := 0; bits < 1<<n; bits++ {
			pins := make([]bool, n)
			assign := map[string]bool{}
			for i := 0; i < n; i++ {
				pins[i] = bits>>i&1 != 0
				assign[c.Pins[i].Name] = pins[i]
			}
			want := c.Expr.Eval(assign)
			for _, p := range c.Patterns {
				if got := evalPattern(p, pins); got != want {
					t.Fatalf("cell %s pattern %s: eval %04b = %v, want %v",
						c.Name, p, bits, got, want)
				}
			}
		}
	}
}

func TestPatternEnumerationCounts(t *testing.T) {
	lib := Lib2()
	// nand4 = !(a*b*c*d): the 4-ary AND has 15 binary association trees,
	// but unordered dedup collapses mirror shapes; at least the two
	// canonical shapes (chain and balanced) must appear.
	c := lib.CellByName("nand4")
	if c == nil {
		t.Fatal("nand4 missing")
	}
	if len(c.Patterns) < 2 {
		t.Errorf("nand4 has %d patterns, want >= 2", len(c.Patterns))
	}
	// An inverter has exactly one pattern: INV(leaf).
	inv := lib.CellByName("inv1")
	if len(inv.Patterns) != 1 || inv.Patterns[0].Kind != PatInv {
		t.Errorf("inv1 patterns: %v", inv.Patterns)
	}
	// nand2 has exactly one pattern: NAND(leaf, leaf).
	nd := lib.CellByName("nand2")
	if len(nd.Patterns) != 1 || nd.Patterns[0].Kind != PatNand {
		t.Errorf("nand2 patterns: %v", nd.Patterns)
	}
}

func TestLib2Lookups(t *testing.T) {
	lib := Lib2()
	if lib.Inverter() == nil || lib.Inverter().Name != "inv1" {
		t.Errorf("smallest inverter = %v", lib.Inverter())
	}
	if lib.Nand2() == nil || lib.Nand2().Name != "nand2" {
		t.Errorf("smallest nand2 = %v", lib.Nand2())
	}
	if math.Abs(lib.DefaultLoad()-1.0) > 1e-12 {
		t.Errorf("default load = %v, want 1.0", lib.DefaultLoad())
	}
	if lib.MaxInputs() != 6 {
		t.Errorf("max inputs = %d, want 6", lib.MaxInputs())
	}
}

func TestPinResolution(t *testing.T) {
	text := `
GATE g 10 O=a*!b;
PIN a NONINV 1.5 99 0.5 0.6 0.7 0.8
PIN b INV 2.5 99 1.0 1.0 2.0 2.0
GATE inv 5 O=!x;
PIN * INV 1 99 0.3 0.4 0.3 0.4
GATE nd 8 O=!(x*y);
PIN * INV 1 99 0.3 0.4 0.3 0.4
`
	lib, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	g := lib.CellByName("g")
	if g.PinIndex("a") != 0 || g.PinIndex("b") != 1 {
		t.Fatalf("pin order wrong: %+v", g.Pins)
	}
	if g.Pins[0].Load != 1.5 || g.Pins[1].Load != 2.5 {
		t.Errorf("loads wrong: %+v", g.Pins)
	}
	// Averaged rise/fall: pin b block = (1.0+2.0)/2.
	if math.Abs(g.Pins[1].Block-1.5) > 1e-12 {
		t.Errorf("block = %v, want 1.5", g.Pins[1].Block)
	}
	if g.Pins[0].Phase != PhaseNonInv || g.Pins[1].Phase != PhaseInv {
		t.Error("phases wrong")
	}
}

// overflowLoadLib and overflowAreaLib are lib2's inv1 beside NAND cells
// whose finite numbers sum to +Inf: nand2's input loads average to
// DefaultLoad, and three 1e308 areas overflow a netlist's total.
const (
	overflowLoadLib = "GATE inv1 16 O=!a; PIN * INV 1.0 999 0.40 0.90 0.40 0.90\n" +
		"GATE nand2 24 O=!(a*b); PIN * INV 1e308 999 0.45 0.90 0.45 0.90\n"
	overflowAreaLib = "GATE inv1 16 O=!a; PIN * INV 1.0 999 0.40 0.90 0.40 0.90\n" +
		"GATE nand2 1e308 O=!(a*b); PIN * INV 1.0 999 0.45 0.90 0.45 0.90\n" +
		"GATE nand3 1e308 O=!(a*b*c); PIN * INV 1.8 999 0.60 1.00 0.60 1.00\n"
)

func TestParseErrors(t *testing.T) {
	const nd = "GATE nd 2 O=!(a*b);\nPIN * INV 1 99 1 1 1 1\n"
	cases := []struct{ name, text, want string }{
		{"pin-before-gate", "PIN * INV 1 99 1 1 1 1\n", "PIN before"},
		{"latch", "LATCH l 1 O=D;\n", "LATCH"},
		{"no-pins", "GATE g 1 O=a;\nGATE h 1 O=!a;\nPIN * INV 1 99 1 1 1 1\n", "no PIN"},
		{"bad-area", "GATE g x O=!a;\nPIN * INV 1 99 1 1 1 1\n", "bad area"},
		{"missing-eq", "GATE g 1 !a;\nPIN * INV 1 99 1 1 1 1\n", "missing '='"},
		{"unknown-pin", "GATE g 1 O=!(a*b);\nPIN a INV 1 99 1 1 1 1\n", "no PIN declaration"},
		{"no-inverter", "GATE nd 8 O=!(x*y);\nPIN * INV 1 99 1 1 1 1\n", "no inverter"},
		{"no-nand", "GATE inv 5 O=!x;\nPIN * INV 1 99 1 1 1 1\n", "no 2-input NAND"},
		{"empty", "\n", "empty library"},
		// The non-finite cases would otherwise be complete libraries.
		{"nan-area", nd + "GATE g NaN O=!a;\nPIN * INV 1 99 1 1 1 1\n", "cell g: area NaN is not finite"},
		{"inf-area", nd + "GATE g +Inf O=!a;\nPIN * INV 1 99 1 1 1 1\n", "cell g: area +Inf is not finite"},
		{"nan-input-load", nd + "GATE g 1 O=!a;\nPIN * INV NaN 99 1 1 1 1\n", "cell g: pin *: input-load NaN is not finite"},
		{"inf-max-load", nd + "GATE g 1 O=!a;\nPIN a INV 1 Inf 1 1 1 1\n", "cell g: pin a: max-load Inf is not finite"},
		{"inf-rise-block", nd + "GATE g 1 O=!a; PIN * INV 1 99 -Inf 1 1 1\n", "cell g: pin *: rise-block -Inf is not finite"},
		{"nan-rise-drive", nd + "GATE g 1 O=!a;\nPIN * INV 1 99 1 nan 1 1\n", "cell g: pin *: rise-drive nan is not finite"},
		{"inf-fall-block", nd + "GATE g 1 O=!a;\nPIN * INV 1 99 1 1 infinity 1\n", "cell g: pin *: fall-block infinity is not finite"},
		{"nan-fall-drive", nd + "GATE g 1 O=!a;\nPIN * INV 1 99 1 1 1 NaN\n", "cell g: pin *: fall-drive NaN is not finite"},
		{"delay-overflow", nd + "GATE g 1 O=!a;\nPIN * INV 1 99 1e308 1 1e308 1\n", "cell g: pin *: rise-block 1e308 exceeds the magnitude ceiling 1e+09"},
		// Finite numbers whose sums overflow: DefaultLoad, and the
		// netlist's total area.
		{"overflow-load", overflowLoadLib, "cell nand2: pin *: input-load 1e308 exceeds the magnitude ceiling 1e+09"},
		{"overflow-area", overflowAreaLib, "cell nand2: area 1e308 exceeds the magnitude ceiling 1e+09"},
		{"negative-max-load", nd + "GATE g 1 O=!a;\nPIN * INV 1 -2e9 1 1 1 1\n", "cell g: pin *: max-load -2e9 exceeds the magnitude ceiling 1e+09"},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCellHelpers(t *testing.T) {
	lib := Lib2()
	if nd := lib.CellByName("nand2"); nd == nil || nd.Name != "nand2" {
		t.Errorf("CellByName(nand2) = %v", nd)
	}
	if lib.CellByName("definitely-missing") != nil {
		t.Error("CellByName on missing cell should return nil")
	}
}

func TestPatternSizeDepth(t *testing.T) {
	// NAND3 = NAND2 + INV + NAND2 in any association: 3 nodes, depth 3.
	pins := regexp.MustCompile(`p[0-9]+`)
	nd3 := Lib2().CellByName("nand3")
	if len(nd3.Patterns) == 0 {
		t.Fatal("nand3 has no patterns")
	}
	for _, p := range nd3.Patterns {
		if shape := pins.ReplaceAllString(p.String(), "p"); shape != "n(i(n(p,p)),p)" {
			t.Errorf("nand3 pattern %s has shape %s, want n(i(n(p,p)),p)", p, shape)
		}
	}
}

func TestSymmetryDetection(t *testing.T) {
	lib := Lib2()
	for name, want := range map[string]bool{
		"nand4": true, "nor4": true, "and3": true, "xor2": true,
		"aoi21": false, "mux21": false, "maj3": true,
	} {
		c := lib.CellByName(name)
		if c == nil {
			t.Fatalf("cell %s missing", name)
		}
		if got := c.isFullySymmetric(); got != want {
			t.Errorf("%s symmetric = %v, want %v", name, got, want)
		}
	}
}

func TestWideGatePatternCounts(t *testing.T) {
	lib := Lib2()
	// Symmetric relabeling must keep wide-gate pattern counts far below
	// the (2n-3)!! labeled-shape count (945 for n=6).
	for name, maxPats := range map[string]int{"nand4": 20, "nor4": 20, "aoi222": 80} {
		c := lib.CellByName(name)
		if got := len(c.Patterns); got > maxPats {
			t.Errorf("%s has %d patterns, want <= %d", name, got, maxPats)
		}
	}
}

func TestExprString(t *testing.T) {
	e, err := ParseExpr("!(a*b+c)")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseExpr(e.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", e.String(), err)
	}
	for bits := 0; bits < 8; bits++ {
		assign := map[string]bool{"a": bits&1 != 0, "b": bits&2 != 0, "c": bits&4 != 0}
		if e.Eval(assign) != back.Eval(assign) {
			t.Fatalf("String round trip changed function at %03b", bits)
		}
	}
}
