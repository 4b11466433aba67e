package equiv

import (
	"context"
	"errors"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/network"
)

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

const refBlif = `
.model ref
.inputs a b c
.outputs y z
.names a b t
11 1
.names t c y
1- 1
-1 1
.names a c z
10 1
.end
`

func TestEquivalentProvesEqual(t *testing.T) {
	ref := mustParse(t, refBlif)
	// Same functions, different structure: y = ab + c via distributed form,
	// z = a·c̄ directly.
	impl := mustParse(t, `
.model impl
.inputs a b c
.outputs y z
.names a b c y
11- 1
--1 1
.names c a z
01 1
.end
`)
	if err := Equivalent(context.Background(), ref, impl, bdd.Config{}); err != nil {
		t.Fatalf("equivalent networks rejected: %v", err)
	}
}

func TestEquivalentFindsCounterexample(t *testing.T) {
	ref := mustParse(t, refBlif)
	// z is a·c̄ in ref but a·c here; y is unchanged.
	impl := mustParse(t, `
.model impl
.inputs a b c
.outputs y z
.names a b t
11 1
.names t c y
1- 1
-1 1
.names a c z
11 1
.end
`)
	err := Equivalent(context.Background(), ref, impl, bdd.Config{})
	if err == nil {
		t.Fatal("inequivalent networks accepted")
	}
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("want *MismatchError, got %T: %v", err, err)
	}
	if mm.Output != "z" {
		t.Fatalf("mismatch reported on output %q, want z", mm.Output)
	}
	if len(mm.Cube) != len(ref.PIs) {
		t.Fatalf("cube width %d, want %d", len(mm.Cube), len(ref.PIs))
	}
	// The counterexample must actually distinguish the networks.
	w := mm.Witness()
	if ref.Eval(w)[mm.Output] == impl.Eval(w)[mm.Output] {
		t.Fatalf("counterexample %v does not distinguish output %s", w, mm.Output)
	}
}

func TestEquivalentStructuralMismatches(t *testing.T) {
	ref := mustParse(t, refBlif)
	cases := map[string]string{
		"PI count":       ".model x\n.inputs a b\n.outputs y z\n.names a b y\n11 1\n.names a b z\n10 1\n.end\n",
		"PI names":       ".model x\n.inputs a b q\n.outputs y z\n.names a b q y\n111 1\n.names a q z\n10 1\n.end\n",
		"missing output": ".model x\n.inputs a b c\n.outputs y w\n.names a b t\n11 1\n.names t c y\n1- 1\n-1 1\n.names a c w\n10 1\n.end\n",
	}
	for name, text := range cases {
		err := Equivalent(context.Background(), ref, mustParse(t, text), bdd.Config{})
		if err == nil {
			t.Errorf("%s mismatch accepted", name)
			continue
		}
		var mm *MismatchError
		if errors.As(err, &mm) {
			t.Errorf("%s mismatch reported as functional counterexample: %v", name, err)
		}
	}
}

func TestEquivalentCancellation(t *testing.T) {
	ref := mustParse(t, refBlif)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Equivalent(ctx, ref, ref.Duplicate(), bdd.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled check returned %v", err)
	}
}
