package verify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/genlib"
	"powermap/internal/mapper"
	"powermap/internal/verify/equiv"
)

// TestSynthesizePropertyFuzz drives the whole pipeline over seeded random
// networks and proves every run end to end: source ≡ optimized ≡ decomposed
// ≡ mapped, report self-consistent, every curve non-inferior. Modes cycle
// through DAG/tree partitioning × worker counts {1, 8} and all six methods
// (covering unbounded and height-bounded decomposition), then through
// exact (BDD-priced) decomposition, strashed subject graphs and skewed
// per-PI probabilities.
func TestSynthesizePropertyFuzz(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 40
	}
	methods := core.Methods()
	ctx := context.Background()
	totalCurves := 0
	for seed := 0; seed < runs; seed++ {
		cfg := RandConfig{
			Seed:     int64(seed),
			PIs:      4 + seed%4, // 4..7
			Nodes:    8 + seed%9, // 8..16
			MaxFanin: 2 + seed%3, // 2..4
			Depth:    3 + seed%3, // 3..5
			Outputs:  1 + seed%3, // 1..3
		}
		src := RandomNetwork("fuzz", cfg)
		tree := seed%2 == 1
		backend := mapper.BackendStructural
		if tree {
			backend = mapper.BackendTree
		}
		workers := 1
		if seed%4 >= 2 {
			workers = 8
		}
		exact := seed/6%2 == 1
		strash := seed/12%2 == 1
		var piProb map[string]float64
		if seed/24%2 == 1 {
			r := rand.New(rand.NewSource(int64(seed)))
			piProb = make(map[string]float64)
			for _, name := range src.PINames() {
				piProb[name] = 0.05 + 0.9*r.Float64()
			}
		}
		var audit CurveAuditor
		res, err := core.SynthesizeContext(ctx, src, core.Options{
			Method:     methods[seed%len(methods)],
			Exact:      exact,
			Strash:     strash,
			PIProb:     piProb,
			Mapper:     backend,
			Workers:    workers,
			CurveAudit: audit.Hook(),
		})
		mode := fmt.Sprintf("tree=%v workers=%d exact=%v strash=%v skewed=%v", tree, workers, exact, strash, piProb != nil)
		if err != nil {
			t.Fatalf("seed %d (%s): synthesize: %v", seed, mode, err)
		}
		if err := CheckResult(ctx, src, res); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, mode, err)
		}
		if audit.Err() != nil {
			t.Fatalf("seed %d: curve invariant: %v", seed, audit.Err())
		}
		// A run may legitimately audit zero curves (quick-opt can collapse a
		// small network to source-driven outputs); require coverage overall.
		totalCurves += audit.Checked()
	}
	if totalCurves == 0 {
		t.Fatal("curve audit hook never ran across the whole fuzz sweep")
	}
}

// TestBundledCircuitsVerify proves original ≡ decomposed ≡ mapped on every
// bundled benchmark under both mapping objectives.
func TestBundledCircuitsVerify(t *testing.T) {
	ctx := context.Background()
	methods := []core.Method{core.MethodI, core.MethodVI}
	for _, b := range circuits.Suite() {
		if testing.Short() && b.Name != "cm42a" && b.Name != "decod" {
			continue
		}
		src := b.Build()
		for _, m := range methods {
			res, err := core.SynthesizeContext(ctx, src, core.Options{Method: m})
			if err != nil {
				t.Fatalf("%s/%v: synthesize: %v", b.Name, m, err)
			}
			if err := CheckResult(ctx, src, res); err != nil {
				t.Errorf("%s/%v: %v", b.Name, m, err)
			}
		}
	}
}

// TestBundledCircuitsVerifyCutBackend proves original ≡ decomposed ≡
// mapped when matching is done by the cut-based NPN backend, in both
// library and generic-LUT modes. The mapped netlist is proven equivalent
// to the source by construction-independent global BDDs, so the proof
// covers the whole AIG/cut/NPN match chain.
func TestBundledCircuitsVerifyCutBackend(t *testing.T) {
	ctx := context.Background()
	for _, b := range circuits.Suite() {
		if testing.Short() && b.Name != "cm42a" && b.Name != "decod" {
			continue
		}
		src := b.Build()
		for _, lut := range []int{0, 4} {
			var audit CurveAuditor
			res, err := core.SynthesizeContext(ctx, src, core.Options{
				Method:     core.MethodVI,
				Mapper:     mapper.BackendCuts,
				LUT:        lut,
				CurveAudit: audit.Hook(),
			})
			if err != nil {
				t.Fatalf("%s/lut=%d: synthesize: %v", b.Name, lut, err)
			}
			if err := CheckResult(ctx, src, res); err != nil {
				t.Errorf("%s/lut=%d: %v", b.Name, lut, err)
			}
			if err := audit.Err(); err != nil {
				t.Errorf("%s/lut=%d: curve invariant: %v", b.Name, lut, err)
			}
		}
	}
}

// TestCorruptedNetlistRejected swaps one mapped gate's cell for a
// functionally different cell with the same pin count and demands the
// equivalence check reject the reconstruction with a counterexample cube.
func TestCorruptedNetlistRejected(t *testing.T) {
	ctx := context.Background()
	b, err := circuits.ByName("cm42a")
	if err != nil {
		t.Fatal(err)
	}
	src := b.Build()
	res, err := core.SynthesizeContext(ctx, src, core.Options{Method: core.MethodVI})
	if err != nil {
		t.Fatal(err)
	}
	lib := genlib.Lib2()
	for _, g := range res.Netlist.Gates {
		orig := g.Cell
		for _, c := range lib.Cells {
			if c == orig || len(c.Pins) != len(orig.Pins) {
				continue
			}
			if c.Cover().Equal(orig.Cover()) {
				continue // same function (e.g. a different drive strength)
			}
			g.Cell = c
			mapped, err := res.Netlist.ToNetwork()
			if err != nil {
				t.Fatal(err)
			}
			err = equiv.Equivalent(ctx, src, mapped, bdd.Config{})
			if err == nil {
				// The corruption was masked downstream; restore and try
				// another injection site.
				g.Cell = orig
				continue
			}
			var mm *equiv.MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("want *MismatchError with counterexample, got %T: %v", err, err)
			}
			w := mm.Witness()
			if src.Eval(w)[mm.Output] == mapped.Eval(w)[mm.Output] {
				t.Fatalf("counterexample %v does not distinguish output %s", w, mm.Output)
			}
			return
		}
	}
	t.Fatal("no cell substitution produced a detectable corruption")
}
