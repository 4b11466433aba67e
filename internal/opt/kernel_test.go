package opt

import (
	"context"
	"math/rand"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/verify/equiv"
)

func TestKernelsOfSimple(t *testing.T) {
	// f = ab + ac = a(b+c): kernels include {b + c} and f itself is not
	// cube-free (common cube a), so the cube-free form a(b+c)/a = b+c.
	text := `
.model k
.inputs a b c
.outputs y
.names a b c y
11- 1
1-1 1
.end
`
	nw := mustParse(t, text)
	y := nw.NodeByName("y")
	ks := kernelsOf(globalCover(y), 10)
	found := false
	for _, k := range ks {
		if k.key() == "b + c" {
			found = true
		}
	}
	if !found {
		keys := []string{}
		for _, k := range ks {
			keys = append(keys, k.key())
		}
		t.Errorf("kernel b+c not found; have %v", keys)
	}
}

func TestWeakDivision(t *testing.T) {
	// f = ad + bd + ae + be + c; d = a + b → f/d = {d, e}, r = c.
	text := `
.model w
.inputs a b c d e
.outputs y
.names a b c d e y
1--1- 1
-1-1- 1
1---1 1
-1--1 1
--1-- 1
.end
`
	nw := mustParse(t, text)
	y := nw.NodeByName("y")
	f := globalCover(y)
	a, b := nw.NodeByName("a"), nw.NodeByName("b")
	d := gCover{gCube{{node: a}}, gCube{{node: b}}}
	q := weakDivide(f, sortGCover(d))
	if len(q) != 2 {
		t.Fatalf("quotient has %d cubes, want 2: %v", len(q), sortGCover(q).key())
	}
}

func TestExtractKernelsSharedDivisor(t *testing.T) {
	// (a+b) appears multiplied into two nodes: extraction must create a
	// shared node and reduce literals.
	text := `
.model kx
.inputs a b c d e
.outputs y z
.names a b c y
1-1 1
-11 1
.names a b d e z
1-1- 1
-11- 1
1--1 1
-1-1 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	before := nw.Stats().Literals
	n, err := ExtractKernels(context.Background(), nw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no kernel extracted")
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
	if after := nw.Stats().Literals; after >= before {
		t.Errorf("kernel extraction did not reduce literals: %d -> %d", before, after)
	}
}

func TestExtractKernelsWithinOneNode(t *testing.T) {
	// f = ac + bc + ad + bd = (a+b)(c+d): repeated divisor inside one node.
	text := `
.model single
.inputs a b c d
.outputs y
.names a b c d y
1-1- 1
-11- 1
1--1 1
-1-1 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	before := nw.Stats().Literals
	n, err := ExtractKernels(context.Background(), nw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no kernel extracted")
	}
	assertEquivalent(t, ref, nw)
	if after := nw.Stats().Literals; after >= before {
		t.Errorf("no literal saving: %d -> %d", before, after)
	}
}

func TestExtractKernelsNoCandidates(t *testing.T) {
	// Single-cube nodes have no multi-cube kernels.
	text := `
.model none
.inputs a b
.outputs y
.names a b y
11 1
.end
`
	nw := mustParse(t, text)
	if n, err := ExtractKernels(context.Background(), nw, 10); err != nil || n != 0 {
		t.Errorf("extracted %d kernels from a kernel-free network (err %v)", n, err)
	}
}

func TestExtractKernelsRandomPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	for trial := 0; trial < 15; trial++ {
		nw := randomNetwork(r, 5, 8)
		ref := nw.Duplicate()
		if _, err := ExtractKernels(context.Background(), nw, 20); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := equiv.Equivalent(context.Background(), ref, nw, bdd.Config{}); err != nil {
			t.Fatalf("trial %d: kernel extraction changed the function: %v", trial, err)
		}
	}
}

func TestOptimizeWithKernels(t *testing.T) {
	// The full script including kernel extraction preserves functions and
	// reports kernel stats.
	text := `
.model script
.inputs a b c d e f
.outputs y z
.names a b c y
1-1 1
-11 1
.names a b d e f z
1-1-- 1
-11-- 1
1--11 1
-1-11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	st, err := Optimize(context.Background(), nw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
	if st.KernelsExtracted == 0 {
		t.Error("script extracted no kernels")
	}
	_ = st
}

func TestGCoverHelpers(t *testing.T) {
	nw := mustParse(t, ".model h\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n")
	y := nw.NodeByName("y")
	f := globalCover(y)
	if f.numLiterals() != 4 {
		t.Errorf("numLiterals = %d", f.numLiterals())
	}
	if cc := commonCube(f); len(cc) != 0 {
		t.Errorf("xor has common cube %v", cc)
	}
	if got := f.key(); got != "!a*b + !b*a" && got != "!b*a + !a*b" {
		t.Errorf("cover key %q", got)
	}
}
