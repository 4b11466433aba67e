package powermap

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/verify"
	"powermap/internal/verify/equiv"
)

const facadeBlif = `
.model facade
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
`

func TestFacadeFlow(t *testing.T) {
	nw, err := ParseBLIFString(facadeBlif)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(nw, Options{Method: MethodVI, Style: Static})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(nw, res); err != nil {
		t.Fatal(err)
	}
	if res.Report.Gates == 0 {
		t.Error("no gates")
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, res.Optimized); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBLIF(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ProveEquivalent(context.Background(), nw, back); err != nil {
		t.Fatalf("optimized network round trip: %v", err)
	}
}

// pairsBlif is f = x0·y0 + … + x11·y11 with every x input declared before
// every y input.
func pairsBlif() string {
	const n = 12
	var b strings.Builder
	b.WriteString(".model pairs\n.inputs")
	for _, v := range []string{"x", "y"} {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " %s%d", v, i)
		}
	}
	b.WriteString("\n.outputs f\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".names x%d y%d p%d\n11 1\n", i, i, i)
	}
	b.WriteString(".names")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " p%d", i)
	}
	b.WriteString(" f\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s1%s 1\n", strings.Repeat("-", i), strings.Repeat("-", n-1-i))
	}
	b.WriteString(".end\n")
	return b.String()
}

// TestVerifyHonorsRunBDDBudget: the pipeline's DFS variable order
// interleaves each x/y pair, so synthesis fits a 300-node budget, but the
// oracle's declaration order (all x, then all y) needs more than 1,000
// nodes. Proving the run under the run's own budget must therefore fail
// on the node limit, not silently verify at the kernel default.
func TestVerifyHonorsRunBDDBudget(t *testing.T) {
	ctx := context.Background()
	nw, err := ParseBLIFString(pairsBlif())
	if err != nil {
		t.Fatal(err)
	}
	if err := equiv.Equivalent(ctx, nw, nw.Duplicate(), bdd.Config{NodeLimit: 1000}); !bdd.IsNodeLimit(err) {
		t.Fatalf("declaration-order oracle fit 1,000 nodes: %v", err)
	}
	res, err := Synthesize(nw, Options{Method: MethodVI, BDD: bdd.Config{NodeLimit: 300}})
	if err != nil {
		t.Fatalf("synthesis under a 300-node budget: %v", err)
	}
	if err := verify.CheckResult(ctx, nw, res); !bdd.IsNodeLimit(err) {
		t.Errorf("verify.CheckResult ignored the run's budget: %v", err)
	}
	if err := Verify(nw, res); !bdd.IsNodeLimit(err) {
		t.Errorf("Verify ignored the run's budget: %v", err)
	}
}

func TestFacadeLibraryAndBenchmarks(t *testing.T) {
	lib := Lib2()
	if lib.Inverter() == nil || lib.Nand2() == nil {
		t.Error("library lookups broken")
	}
	lib2, err := ParseGenlib(strings.NewReader(
		"GATE i 1 O=!a;\nPIN * INV 1 99 1 1 1 1\nGATE n 2 O=!(a*b);\nPIN * INV 1 99 1 1 1 1\n"))
	if err != nil || len(lib2.Cells) != 2 {
		t.Fatalf("ParseGenlib: %v %v", lib2, err)
	}
	if got := len(Benchmarks()); got != 17 {
		t.Errorf("suite size %d", got)
	}
	b, err := BenchmarkByName("cm42a")
	if err != nil || b.Name != "cm42a" {
		t.Fatalf("BenchmarkByName: %v %v", b, err)
	}
	if len(Methods()) != 6 {
		t.Error("methods")
	}
}

// TestFacadeRejectsUnknownBackend: a MapperBackend value that names no
// backend fails the run instead of mapping with the structural matcher.
func TestFacadeRejectsUnknownBackend(t *testing.T) {
	b, err := BenchmarkByName("cm42a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeContext(context.Background(), b.Build(), Options{Method: MethodVI, Mapper: MapperBackend(7)})
	if err == nil || !strings.Contains(err.Error(), "Backend(7)") {
		t.Fatalf("SynthesizeContext with MapperBackend(7): result %v, err %v; want an error naming Backend(7)", res != nil, err)
	}
}

func TestFacadeFigure1AndEstimation(t *testing.T) {
	nw, probs := Figure1()
	model, err := EstimateActivities(nw, probs, DominoP)
	if err != nil {
		t.Fatal(err)
	}
	_ = model
	y := nw.NodeByName("y")
	if y == nil || y.Prob1 <= 0.041 || y.Prob1 >= 0.043 {
		t.Errorf("Figure 1 probability wrong: %v", y)
	}
}

func TestFacadeTable1(t *testing.T) {
	rows := Table1(20, 3)
	if len(rows) != 4 || rows[0].Inputs != 3 {
		t.Errorf("Table1 rows: %v", rows)
	}
}

func TestFacadeRunSuite(t *testing.T) {
	rows, err := RunSuite([]Method{MethodI, MethodII, MethodIII, MethodIV, MethodV, MethodVI},
		Options{Style: Static}, []string{"cm42a"})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rows)
	if s.PdPower > 0.5 {
		t.Errorf("pd power change %+.1f%% unexpectedly positive", s.PdPower)
	}
}

func TestFacadeConstantsDistinct(t *testing.T) {
	if Conventional == MinPower || MinPower == BoundedMinPower {
		t.Error("strategies collide")
	}
	if AreaDelay == PowerDelay {
		t.Error("objectives collide")
	}
	if Static == DominoP || DominoP == DominoN {
		t.Error("styles collide")
	}
}
