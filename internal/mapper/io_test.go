package mapper

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/genlib"
	"powermap/internal/verify/equiv"
)

func TestMappedBLIFRoundTrip(t *testing.T) {
	sub, model := subject(t, smallBlif)
	lib := genlib.Lib2()
	nl, err := Map(context.Background(), sub, model, Options{Objective: PowerDelay, Library: lib, Relax: relax(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, ".gate") {
		t.Fatalf("no .gate statements in output:\n%s", text)
	}
	back, err := ReadMappedBLIF(strings.NewReader(text), lib)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	// The reconstructed network must be equivalent to the subject graph.
	if err := equiv.Equivalent(context.Background(), sub, back, bdd.Config{}); err != nil {
		t.Errorf("mapped BLIF round trip changed the function: %v\n%s", err, text)
	}
	// Gate count must survive the trip.
	if got := strings.Count(text, ".gate"); got != len(nl.Gates) {
		t.Errorf("wrote %d .gate lines for %d gates", got, len(nl.Gates))
	}
}

func TestReadMappedBLIFErrors(t *testing.T) {
	lib := genlib.Lib2()
	cases := []struct{ name, text, want string }{
		{"unknown-cell", ".model m\n.inputs a b\n.outputs y\n.gate bogus a=a b=b O=y\n.end\n", "unknown cell"},
		{"unbound-pin", ".model m\n.inputs a\n.outputs y\n.gate nand2 a=a O=y\n.end\n", "unbound"},
		{"no-output", ".model m\n.inputs a b\n.outputs y\n.gate nand2 a=a b=b\n.end\n", "without output"},
		{"undriven", ".model m\n.inputs a\n.outputs y\n.end\n", "never driven"},
		{"double-drive", ".model m\n.inputs a b\n.outputs y\n.gate nand2 a=a b=b O=y\n.gate nand2 a=b b=a O=y\n.end\n", "driven twice"},
		{"bad-binding", ".model m\n.inputs a b\n.outputs y\n.gate nand2 a b O=y\n.end\n", "malformed binding"},
		{"bad-pin", ".model m\n.inputs a b\n.outputs y\n.gate nand2 x=a b=b O=y\n.end\n", "no pin"},
		{"duplicate-input", ".model m\n.inputs a a\n.outputs y\n.gate nand2 a=a b=a O=y\n.end\n", "duplicate input"},
		{"gate-drives-input", ".model m\n.inputs a b\n.outputs a\n.gate nand2 a=a b=b O=a\n.end\n", "drives primary input"},
	}
	for _, tc := range cases {
		if _, err := ReadMappedBLIF(strings.NewReader(tc.text), lib); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestReadMappedBLIFCycle(t *testing.T) {
	lib := genlib.Lib2()
	text := ".model m\n.inputs a\n.outputs y\n.gate nand2 a=y b=a O=t\n.gate nand2 a=t b=a O=y\n.end\n"
	if _, err := ReadMappedBLIF(strings.NewReader(text), lib); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

// FuzzReadMappedBLIF feeds arbitrary text to the mapped-BLIF decoder: it
// must return an error, never panic, and any network it accepts must pass
// the structural checker. The seed corpus in
// testdata/fuzz/FuzzReadMappedBLIF holds cm42a's WriteBLIF output, a
// duplicated input and a gate driving a declared input.
func FuzzReadMappedBLIF(f *testing.F) {
	lib := genlib.Lib2()
	f.Fuzz(func(t *testing.T, text string) {
		nw, err := ReadMappedBLIF(strings.NewReader(text), lib)
		if err != nil {
			return
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("accepted network fails Check: %v\ninput:\n%s", err, text)
		}
	})
}

func TestNetlistWriteDot(t *testing.T) {
	sub, model := subject(t, smallBlif)
	lib := genlib.Lib2()
	nl, err := Map(context.Background(), sub, model, Options{Objective: PowerDelay, Library: lib, Relax: relax(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.WriteDot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "shape=box", "shape=doublecircle", "@"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	if got := strings.Count(out, "shape=box"); got != len(nl.Gates) {
		t.Errorf("%d box nodes for %d gates", got, len(nl.Gates))
	}
}

func TestCellCoverMatchesExpr(t *testing.T) {
	lib := genlib.Lib2()
	for _, c := range lib.Cells {
		cov := c.Cover()
		n := c.NumInputs()
		for bits := 0; bits < 1<<n; bits++ {
			assign := make([]bool, n)
			m := map[string]bool{}
			for i := 0; i < n; i++ {
				assign[i] = bits>>i&1 != 0
				m[c.Pins[i].Name] = assign[i]
			}
			if cov.Eval(assign) != c.Expr.Eval(m) {
				t.Fatalf("cell %s: Cover disagrees with Expr at %b", c.Name, bits)
			}
		}
	}
}
