package cli

import (
	"bytes"
	"strings"
	"testing"
)

func TestPcheckCircuit(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pcheck([]string{"-circuit", "cm42a", "-methods", "I,VI"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ok cm42a", "method I", "method VI", "curves audited", "all checks passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestPcheckBlif(t *testing.T) {
	path := writeTempBlif(t)
	var out, errOut bytes.Buffer
	if err := Pcheck([]string{"-blif", path, "-methods", "IV", "-mapper", "tree"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ok clitest") {
		t.Errorf("output missing circuit line:\n%s", out.String())
	}
}

func TestPcheckRandom(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pcheck([]string{"-random", "4", "-seed", "5", "-methods", "all"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "ok rand"); got != 4 {
		t.Errorf("%d random networks checked, want 4:\n%s", got, out.String())
	}
}

func TestPcheckHuffman(t *testing.T) {
	for _, style := range []string{"static", "domino-p", "domino-n"} {
		var out, errOut bytes.Buffer
		if err := Pcheck([]string{"-huffman", "10", "-style", style}, &out, &errOut); err != nil {
			t.Fatalf("style %s: %v", style, err)
		}
		if !strings.Contains(out.String(), "ok huffman") {
			t.Errorf("style %s: output missing huffman line:\n%s", style, out.String())
		}
	}
}

// TestPcheckInjectExitsNonzero is the acceptance criterion for the
// self-test: an injected corruption must be rejected, surfacing as a
// non-nil error (nonzero exit in cmd/pcheck).
func TestPcheckInjectExitsNonzero(t *testing.T) {
	var out, errOut bytes.Buffer
	err := Pcheck([]string{"-circuit", "cm42a", "-methods", "VI", "-inject"}, &out, &errOut)
	if err == nil {
		t.Fatal("injected violation accepted")
	}
	if !strings.Contains(err.Error(), "injected violation detected") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !strings.Contains(out.String(), "injected corruption") {
		t.Errorf("output missing injection note:\n%s", out.String())
	}
}

func TestPcheckErrors(t *testing.T) {
	cases := [][]string{
		{},                                       // nothing to check
		{"-circuit", "bogus"},                    // unknown benchmark
		{"-circuit", "cm42a", "-methods", "VII"}, // bad method
		{"-circuit", "cm42a", "-methods", ","},   // empty method list
		{"-circuit", "cm42a", "-style", "ecl"},   // bad style
		{"-inject"},                              // inject without a circuit
		{"-blif", "/nonexistent", "-circuit", "cm42a"}, // both inputs
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if err := Pcheck(args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestPcheckList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pcheck([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cm42a") {
		t.Errorf("list output missing cm42a:\n%s", out.String())
	}
}
