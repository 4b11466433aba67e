package core

import (
	"context"
	"fmt"
	"testing"

	"powermap/internal/circuits"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
	"powermap/internal/network"
	"powermap/internal/verify/equiv"
)

// verifyAgainstSource checks that the optimized network and the subject
// graph still compute the source's outputs; Synthesize itself verifies the
// mapped netlist gate by gate. (internal/verify.CheckResult imports this
// package, so the tests here call its checker, equiv, directly.)
func verifyAgainstSource(src *network.Network, res *Result) error {
	for _, stage := range []struct {
		name string
		nw   *network.Network
	}{{"optimized network", res.Optimized}, {"subject graph", res.Decomp.Network}} {
		if err := equiv.Equivalent(context.Background(), src, stage.nw, res.Options.BDD); err != nil {
			return fmt.Errorf("%s: %w", stage.name, err)
		}
	}
	return nil
}

func TestMethodProperties(t *testing.T) {
	if len(Methods()) != 6 {
		t.Fatal("expected six methods")
	}
	wantsAD := map[Method]bool{MethodI: true, MethodII: true, MethodIII: true}
	for _, m := range Methods() {
		if (m.Mapping().String() == "ad-map") != wantsAD[m] {
			t.Errorf("method %v mapping %v wrong", m, m.Mapping())
		}
	}
	if MethodI.Decomposition() != MethodIV.Decomposition() {
		t.Error("I and IV must share decomposition")
	}
	if MethodI.String() != "I" || MethodVI.String() != "VI" {
		t.Error("Roman numerals broken")
	}
}

func TestSynthesizeAllMethodsSmallCircuit(t *testing.T) {
	bench, err := circuits.ByName("cm42a")
	if err != nil {
		t.Fatal(err)
	}
	src := bench.Build()
	for _, m := range Methods() {
		res, err := Synthesize(src, Options{Method: m, Style: huffman.Static})
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if err := verifyAgainstSource(src, res); err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if res.Report.Gates == 0 || res.Report.GateArea <= 0 || res.Report.PowerUW <= 0 {
			t.Errorf("method %v: degenerate report %+v", m, res.Report)
		}
	}
}

func TestSynthesizeALU(t *testing.T) {
	src := circuits.ALU(4)
	adRes, err := Synthesize(src, Options{Method: MethodI, Style: huffman.Static})
	if err != nil {
		t.Fatal(err)
	}
	pdRes, err := Synthesize(src, Options{Method: MethodIV, Style: huffman.Static})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyAgainstSource(src, adRes); err != nil {
		t.Fatal(err)
	}
	if err := verifyAgainstSource(src, pdRes); err != nil {
		t.Fatal(err)
	}
	// The headline shape: pd-map spends area to save power.
	if pdRes.Report.PowerUW > adRes.Report.PowerUW*1.10 {
		t.Errorf("pd-map power %.2f clearly worse than ad-map %.2f",
			pdRes.Report.PowerUW, adRes.Report.PowerUW)
	}
}

func TestSynthesizeDominoStyles(t *testing.T) {
	src := circuits.Decoder10()
	for _, style := range []huffman.Style{huffman.DominoP, huffman.DominoN} {
		res, err := Synthesize(src, Options{Method: MethodV, Style: style})
		if err != nil {
			t.Fatalf("style %v: %v", style, err)
		}
		if err := verifyAgainstSource(src, res); err != nil {
			t.Fatalf("style %v: %v", style, err)
		}
	}
}

func TestSynthesizeExactCosting(t *testing.T) {
	src := circuits.Decoder10()
	res, err := Synthesize(src, Options{Method: MethodV, Style: huffman.Static, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyAgainstSource(src, res); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeDoesNotMutateInput(t *testing.T) {
	src := circuits.Decoder10()
	before := src.Stats()
	if _, err := Synthesize(src, Options{Method: MethodIV, Style: huffman.Static}); err != nil {
		t.Fatal(err)
	}
	if src.Stats() != before {
		t.Error("input network mutated by Synthesize")
	}
}

func TestSynthesizeOptionPaths(t *testing.T) {
	src := circuits.Decoder10()
	for _, o := range []Options{
		{Method: MethodV, Style: huffman.Static, Mapper: mapper.BackendTree},
		{Method: MethodV, Style: huffman.Static, Epsilon: 0.3},
		{Method: MethodV, Style: huffman.Static, PowerMethod2: true},
		{Style: huffman.Static}, // zero Method: Method I
	} {
		res, err := Synthesize(src, o)
		if err != nil {
			t.Fatalf("options %+v: %v", o, err)
		}
		if err := verifyAgainstSource(src, res); err != nil {
			t.Fatalf("options %+v: %v", o, err)
		}
		// Result.Options records the run's resolved method and library.
		want := o.Method
		if want == 0 {
			want = MethodI
		}
		if res.Options.Method != want || res.Options.Library == nil {
			t.Errorf("options %+v: resolved method %v, library %v", o, res.Options.Method, res.Options.Library)
		}
	}
}

func TestSynthesizeTimingConstraints(t *testing.T) {
	src := circuits.ALU(4)
	ref, err := Synthesize(src, Options{Method: MethodIV, Style: huffman.Static})
	if err != nil {
		t.Fatal(err)
	}
	req := ref.Netlist.OutputArrivals()
	for name, a := range req {
		req[name] = a * 1.2
	}
	res, err := Synthesize(src, Options{
		Method:     MethodIV,
		Style:      huffman.Static,
		PORequired: req,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Netlist.WorstSlack(req) < -1e-6 {
		// Some slack misses are tolerated (fixed-load residuals), but the
		// overall delay must stay within the budget regime.
		if res.Report.Delay > ref.Report.Delay*1.3 {
			t.Errorf("constrained run much slower: %.2f vs %.2f", res.Report.Delay, ref.Report.Delay)
		}
	}
}

func TestSynthesizeBadProbability(t *testing.T) {
	src := circuits.Decoder10()
	_, err := Synthesize(src, Options{Method: MethodI, Style: huffman.Static,
		PIProb: map[string]float64{"a0": -1}})
	if err == nil {
		t.Error("bad probability accepted")
	}
}
