package genlib

import (
	"math"
	"testing"
)

// FuzzParseExpr exercises the genlib expression parser: it must never
// panic, and accepted expressions must round-trip through String.
func FuzzParseExpr(f *testing.F) {
	for _, s := range []string{
		"a", "!a", "a*b", "a+b*c", "!(a*b+c)", "((a))", "a'", "a b",
		"!(a+b)*(c+d)", "x1*x2+x3'",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e, err := ParseExpr(input)
		if err != nil {
			return
		}
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("String output %q does not reparse: %v", e.String(), err)
		}
		// Same variables; semantic equality spot-checked on one assignment.
		va, vb := e.Vars(), back.Vars()
		if len(va) != len(vb) {
			t.Fatalf("variable count changed: %v vs %v", va, vb)
		}
		assign := map[string]bool{}
		for i, v := range va {
			assign[v] = i%2 == 0
		}
		if e.Eval(assign) != back.Eval(assign) {
			t.Fatalf("round trip changed semantics for %q", input)
		}
	})
}

// FuzzParseGenlib exercises the full library parser.
func FuzzParseGenlib(f *testing.F) {
	f.Add("GATE inv 1 O=!a;\nPIN * INV 1 99 1 1 1 1\nGATE nd 2 O=!(a*b);\nPIN * INV 1 99 1 1 1 1\n")
	f.Add(lib2Text)
	f.Add("GATE g 1 O=a*!b;\nPIN a NONINV 1 9 1 1 1 1\nPIN b INV 1 9 1 1 1 1\n")
	f.Add("GATE inv NaN O=!a;\nPIN * INV 1 99 1 1 1 1\nGATE nd 2 O=!(a*b);\nPIN * INV 1 99 1 1 1 1\n")
	f.Add("GATE inv 1 O=!a;\nPIN * INV 1 99 1 1 1 1\nGATE nd 2 O=!(a*b);\nPIN * INV Inf 99 1 1 1 1\n")
	f.Add(overflowLoadLib)
	f.Add(overflowAreaLib)
	f.Fuzz(func(t *testing.T, input string) {
		lib, err := ParseString(input)
		if err != nil {
			return
		}
		// Accepted libraries must have valid lookups and patterns.
		if lib.Inverter() == nil || lib.Nand2() == nil {
			t.Fatal("accepted library lacks inverter or nand2")
		}
		for _, c := range lib.Cells {
			if len(c.Patterns) == 0 {
				t.Fatalf("cell %s has no patterns", c.Name)
			}
			// Every number prices a candidate: none may be NaN, ±Inf or
			// so large that the sums built from it overflow.
			if !(math.Abs(c.Area) <= maxMagnitude) {
				t.Fatalf("cell %s has area %v", c.Name, c.Area)
			}
			for _, p := range c.Pins {
				for _, v := range []float64{p.Load, p.MaxLoad, p.Block, p.Drive} {
					if !(math.Abs(v) <= maxMagnitude) {
						t.Fatalf("cell %s pin %s: load %v, max load %v, block %v, drive %v",
							c.Name, p.Name, p.Load, p.MaxLoad, p.Block, p.Drive)
					}
				}
			}
		}
		if d := lib.DefaultLoad(); math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("default load %v", d)
		}
	})
}
