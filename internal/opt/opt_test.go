package opt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/circuits"
	"powermap/internal/network"
	"powermap/internal/sop"
	"powermap/internal/verify/equiv"
)

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func assertEquivalent(t *testing.T, ref, got *network.Network) {
	t.Helper()
	if err := equiv.Equivalent(context.Background(), ref, got, bdd.Config{}); err != nil {
		t.Fatalf("optimization changed the network function: %v", err)
	}
}

func TestSweepConstants(t *testing.T) {
	text := `
.model consts
.inputs a b
.outputs y
.names one
1
.names a one t
11 1
.names t b y
1- 1
-1 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	consts, _, err := Sweep(nw)
	if err != nil {
		t.Fatal(err)
	}
	if consts == 0 {
		t.Error("constant not propagated")
	}
	assertEquivalent(t, ref, nw)
	if nw.NodeByName("one") != nil {
		t.Error("constant node survived sweep")
	}
}

func TestSweepConstantZeroFeeding(t *testing.T) {
	text := `
.model zero
.inputs a
.outputs y
.names z
.names a z y
11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	if _, _, err := Sweep(nw); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
	// y = a AND 0 = 0: y's node becomes constant zero.
	y := nw.NodeByName("y")
	if y == nil || !y.Func.IsZero() {
		t.Errorf("y should be constant 0, got %v", y)
	}
}

func TestSweepBuffers(t *testing.T) {
	text := `
.model bufs
.inputs a b
.outputs y
.names a t
1 1
.names t b y
11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	_, bufs, err := Sweep(nw)
	if err != nil {
		t.Fatal(err)
	}
	if bufs == 0 {
		t.Error("buffer not collapsed")
	}
	assertEquivalent(t, ref, nw)
	y := nw.NodeByName("y")
	if y.FaninIndex(nw.NodeByName("a")) < 0 {
		t.Error("y should read a directly")
	}
}

func TestSweepInverters(t *testing.T) {
	text := `
.model invs
.inputs a b
.outputs y
.names a t
0 1
.names t b y
11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	if _, _, err := Sweep(nw); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
	// y = !a AND b now reads a directly with a flipped literal.
	y := nw.NodeByName("y")
	if y.FaninIndex(nw.NodeByName("a")) < 0 {
		t.Error("y should read a directly after inverter collapse")
	}
}

func TestSweepInverterWithSharedFanin(t *testing.T) {
	// y reads both a and !a: collapsing must merge the columns.
	text := `
.model shared
.inputs a b
.outputs y
.names a na
0 1
.names a na b y
1-1 1
-11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	if _, _, err := Sweep(nw); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
}

func TestEliminateSmallNodes(t *testing.T) {
	text := `
.model elim
.inputs a b c d
.outputs y
.names a b t
11 1
.names t c u
1- 1
-1 1
.names u d y
11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	n, err := Eliminate(context.Background(), nw, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("nothing eliminated")
	}
	assertEquivalent(t, ref, nw)
}

func TestEliminateRespectsThreshold(t *testing.T) {
	// A node with many fanouts whose substitution grows literals a lot
	// must survive a zero threshold.
	text := `
.model keep
.inputs a b c d e f
.outputs y z w
.names a b c t
111 1
100 1
.names t d y
11 1
.names t e z
11 1
.names t f w
11 1
.end
`
	nw := mustParse(t, text)
	before := len(nw.Nodes)
	if _, err := Eliminate(context.Background(), nw, 0, 40); err != nil {
		t.Fatal(err)
	}
	if nw.NodeByName("t") == nil {
		t.Errorf("high-value node eliminated (nodes %d -> %d)", before, len(nw.Nodes))
	}
}

func TestExtractCubes(t *testing.T) {
	// a·b appears in three nodes: extractable.
	text := `
.model fx
.inputs a b c d e
.outputs x y z
.names a b c x
111 1
.names a b d y
111 1
.names a b e z
111 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	litsBefore := nw.Stats().Literals
	n, err := ExtractCubes(context.Background(), nw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cube extracted")
	}
	assertEquivalent(t, ref, nw)
	if lits := nw.Stats().Literals; lits >= litsBefore {
		t.Errorf("extraction did not reduce literals: %d -> %d", litsBefore, lits)
	}
}

func TestOptimizeScriptPreservesFunction(t *testing.T) {
	text := `
.model script
.inputs a b c d e
.outputs y z
.names one
1
.names a buf
1 1
.names buf b t1
11 1
.names t1 one t2
11 1
.names t2 c d t3
11- 1
1-1 1
.names t3 e y
1- 1
-1 1
.names a b z
10 1
01 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	st, err := Optimize(context.Background(), nw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
	if st.LiteralsAfter > st.LiteralsBefore {
		t.Errorf("optimization grew the network: %d -> %d literals",
			st.LiteralsBefore, st.LiteralsAfter)
	}
	if st.ConstantsPropagated == 0 || st.BuffersCollapsed == 0 {
		t.Errorf("expected sweep activity, got %+v", st)
	}
}

func TestOptimizeStrongSimplify(t *testing.T) {
	// The Espresso-style pass must reduce this classic redundancy and
	// preserve the function through the full script.
	text := `
.model strong
.inputs a b c
.outputs y
.names a b c y
11- 1
0-1 1
-11 1
.end
`
	nw := mustParse(t, text)
	ref := nw.Duplicate()
	st, err := Optimize(context.Background(), nw, Options{StrongSimplify: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ref, nw)
	if st.LiteralsAfter >= 6 {
		t.Errorf("consensus cube not removed: %d literals", st.LiteralsAfter)
	}
}

func TestOptimizeRandomNetworksStrong(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(r, 5, 10)
		ref := nw.Duplicate()
		if _, err := Optimize(context.Background(), nw, Options{StrongSimplify: true}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertEquivalent(t, ref, nw)
	}
}

func TestOptimizeRandomNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		nw := randomNetwork(r, 5, 10)
		ref := nw.Duplicate()
		if _, err := Optimize(context.Background(), nw, Options{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("trial %d: invalid network: %v", trial, err)
		}
		assertEquivalent(t, ref, nw)
	}
}

func randomNetwork(r *rand.Rand, npi, nnodes int) *network.Network {
	nw := network.New("rand")
	var pool []*network.Node
	for i := 0; i < npi; i++ {
		pool = append(pool, nw.AddPI(nw.FreshName("pi")))
	}
	for i := 0; i < nnodes; i++ {
		k := 1 + r.Intn(3)
		var fanins []*network.Node
		seen := map[*network.Node]bool{}
		for len(fanins) < k {
			f := pool[r.Intn(len(pool))]
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		f := sop.NewCover(k)
		for cbi := 0; cbi < 1+r.Intn(3); cbi++ {
			cube := sop.NewCube(k)
			for v := range cube {
				cube[v] = sop.Lit(r.Intn(3))
			}
			f.AddCube(cube)
		}
		pool = append(pool, nw.AddNode(nw.FreshName("n"), fanins, f))
	}
	nw.MarkOutput("o1", pool[len(pool)-1])
	nw.MarkOutput("o2", pool[len(pool)-2])
	return nw
}

// TestEliminateMemoMatchesRecompute runs Optimize's pass script with every
// eliminate step checked against the full recompute (an empty memo): each
// cached value must equal a fresh one, and the memoized pick must equal
// the fresh pick.
func TestEliminateMemoMatchesRecompute(t *testing.T) {
	var srcs []*network.Network
	for _, b := range circuits.Suite() {
		srcs = append(srcs, b.Build())
	}
	for seed := int64(1); seed <= 40; seed++ {
		npi := 4 + int(seed%12)
		srcs = append(srcs, circuits.Random(fmt.Sprintf("r%d", seed), seed, npi, 2+int(seed%5), 15+int(seed*7%70)))
	}
	// Core's settings, then a looser threshold that collapses more.
	for _, s := range []struct{ threshold, maxLits int }{{0, 6}, {3, 24}} {
		for _, src := range srcs {
			nw := src.Duplicate()
			checkedOptimize(t, nw, s.threshold, s.maxLits)
			if s.threshold != eliminateThreshold {
				continue
			}
			// The checked script must be Optimize's own.
			ref := src.Duplicate()
			if _, err := Optimize(context.Background(), ref, Options{MaxNodeLiterals: s.maxLits}); err != nil {
				t.Fatal(err)
			}
			if got, want := blifText(t, nw), blifText(t, ref); got != want {
				t.Fatalf("%s (%d, %d): checked script diverged from Optimize", src.Name, s.threshold, s.maxLits)
			}
		}
	}
}

// checkedOptimize is Optimize's script at its extraction limit, with
// checkedEliminate in place of Eliminate.
func checkedOptimize(t *testing.T, nw *network.Network, threshold, maxLits int) {
	t.Helper()
	ctx := context.Background()
	for pass := 0; pass < 4; pass++ {
		c, b, err := Sweep(nw)
		if err != nil {
			t.Fatal(err)
		}
		Simplify(nw)
		e := checkedEliminate(t, nw, threshold, maxLits)
		x, err := ExtractCubes(ctx, nw, maxExtractions)
		if err != nil {
			t.Fatal(err)
		}
		kx, err := ExtractKernels(ctx, nw, maxExtractions)
		if err != nil {
			t.Fatal(err)
		}
		if c+b+e+x+kx == 0 {
			break
		}
	}
	if _, _, err := Sweep(nw); err != nil {
		t.Fatal(err)
	}
	Simplify(nw)
	nw.Sweep()
}

func checkedEliminate(t *testing.T, nw *network.Network, threshold, maxLits int) int {
	t.Helper()
	memoized := eliminator{nw: nw, threshold: threshold, maxNodeLiterals: maxLits,
		memo: map[*network.Node]elimValue{}}
	for step := 0; ; step++ {
		fresh := eliminator{nw: nw, threshold: threshold, maxNodeLiterals: maxLits,
			memo: map[*network.Node]elimValue{}}
		want := fresh.pick()
		for n, cached := range memoized.memo {
			v, ok := fresh.memo[n]
			if !ok {
				v.value, v.ok = eliminationValue(n, maxLits)
			}
			if cached != v {
				t.Fatalf("%s step %d: cached value of %s is %+v, fresh %+v", nw.Name, step, n.Name, cached, v)
			}
		}
		got := memoized.pick()
		if got != want {
			t.Fatalf("%s step %d: memoized pick %v, fresh pick %v", nw.Name, step, nodeName(got), nodeName(want))
		}
		if got == nil {
			nw.Sweep()
			if err := nw.Check(); err != nil {
				t.Fatal(err)
			}
			return step
		}
		if err := memoized.collapse(got); err != nil {
			t.Fatal(err)
		}
	}
}

func nodeName(n *network.Node) string {
	if n == nil {
		return "<none>"
	}
	return n.Name
}

func blifText(t *testing.T, nw *network.Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, nw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// cancelAfterFirst is a context whose Err turns to context.Canceled after
// its first call.
type cancelAfterFirst struct {
	context.Context
	calls int
}

func (c *cancelAfterFirst) Err() error {
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

func TestOptimizeStopsInsidePass(t *testing.T) {
	// Optimize's pass-start check sees a live context; the cancellation
	// must then stop the first pass at its next elimination or extraction,
	// not at the start of the second pass.
	b, err := circuits.ByName("s208")
	if err != nil {
		t.Fatal(err)
	}
	nw := b.Build()
	st, err := Optimize(&cancelAfterFirst{Context: context.Background()}, nw, Options{MaxNodeLiterals: 6})
	if !errors.Is(err, context.Canceled) || err.Error() != "opt: context canceled" {
		t.Fatalf("err = %v, want opt: context canceled", err)
	}
	if st.NodesEliminated > 1 {
		t.Errorf("%d nodes eliminated after cancellation, want at most 1", st.NodesEliminated)
	}
	if err := nw.Check(); err != nil {
		t.Errorf("network left inconsistent: %v", err)
	}
}

// BenchmarkOptimize runs quick-opt at core's settings over every bundled
// circuit but x3, the circuits of the suite-dag workload.
func BenchmarkOptimize(b *testing.B) {
	var srcs []*network.Network
	for _, c := range circuits.Suite() {
		if c.Name != "x3" {
			srcs = append(srcs, c.Build())
		}
	}
	work := make([]*network.Network, len(srcs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, src := range srcs {
			work[j] = src.Duplicate()
		}
		b.StartTimer()
		for _, nw := range work {
			if _, err := Optimize(context.Background(), nw, Options{MaxNodeLiterals: 6}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
