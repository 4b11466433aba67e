// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md §5.
//
// Regeneration benches (one per experiment):
//
//	BenchmarkTable1    — Modified-Huffman optimality simulation (Table 1)
//	BenchmarkTable2    — Methods I–III over representative circuits (Table 2)
//	BenchmarkTable3    — Methods IV–VI over representative circuits (Table 3)
//	BenchmarkSummary   — all six methods + Section 4 summary ratios
//	BenchmarkFigure1   — the Figure 1 decomposition example
//
// Run the full-size experiments with cmd/tables; the benches use reduced
// workloads so `go test -bench=.` stays laptop-friendly. Custom metrics
// (uW, area) are attached so regressions in result quality — not just
// speed — show up in benchmark diffs.
package powermap

import (
	"context"
	"fmt"
	"testing"

	"powermap/internal/core"
	"powermap/internal/decomp"
	"powermap/internal/eval"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
)

// benchCircuits are the representative rows used by the table benches.
var benchCircuits = []string{"cm42a", "s208", "alu2"}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.Table1(60, 1993)
		if len(rows) != 4 {
			b.Fatal("table 1 shape broken")
		}
		b.ReportMetric(rows[3].PercentOptimal, "%opt-n6")
	}
}

func benchTable(b *testing.B, methods []Method) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunSuite(context.Background(), methods, core.Options{Style: Static}, benchCircuits)
		if err != nil {
			b.Fatal(err)
		}
		power, area := 0.0, 0.0
		for _, r := range rows {
			for _, rep := range r.Results {
				power += rep.PowerUW
				area += rep.GateArea
			}
		}
		b.ReportMetric(power, "uW")
		b.ReportMetric(area, "area")
	}
}

func BenchmarkTable2(b *testing.B) {
	benchTable(b, []Method{MethodI, MethodII, MethodIII})
}

func BenchmarkTable3(b *testing.B) {
	benchTable(b, []Method{MethodIV, MethodV, MethodVI})
}

func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunSuite(context.Background(), Methods(), core.Options{Style: Static}, benchCircuits)
		if err != nil {
			b.Fatal(err)
		}
		s := eval.Summarize(rows)
		b.ReportMetric(s.PdPower, "%pd-power")
		b.ReportMetric(s.PdArea, "%pd-area")
	}
}

func BenchmarkFigure1(b *testing.B) {
	alg := huffman.SignalAlgebra{Gate: huffman.GateAnd, Style: huffman.DominoP}
	leaves := []huffman.Signal{
		huffman.SignalFromProb(0.3), huffman.SignalFromProb(0.4),
		huffman.SignalFromProb(0.7), huffman.SignalFromProb(0.5),
	}
	for i := 0; i < b.N; i++ {
		tr := huffman.Build[huffman.Signal](alg, leaves)
		sr := huffman.TotalCost[huffman.Signal](alg, tr) + 0.3 + 0.4 + 0.7 + 0.5
		if sr > 2.146+1e-9 {
			b.Fatalf("Figure 1 regression: SR = %v worse than configuration A", sr)
		}
	}
}

// BenchmarkFlow measures the end-to-end flow with observability off (nil
// scope, the default fast path) and on (full span + metric collection).
// The off variant is the regression guard: instrumentation must stay a
// nil-check away from free when no scope is installed.
func BenchmarkFlow(b *testing.B) {
	bench, err := BenchmarkByName("s208")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	run := func(b *testing.B, sc *Scope) {
		for i := 0; i < b.N; i++ {
			res, err := Synthesize(src, Options{Method: MethodV, Style: Static, Obs: sc})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Report.PowerUW, "uW")
		}
	}
	b.Run("obs-off", func(b *testing.B) { run(b, nil) })
	b.Run("obs-on", func(b *testing.B) {
		sc := NewScope(ObsConfig{})
		run(b, sc)
		sn := sc.Snapshot()
		b.ReportMetric(float64(len(sn.Counters)), "counters")
	})
}

// --- Ablation benches (DESIGN.md §5) ---

// synthAblation measures one flow variant on alu2, reporting power/area.
func synthAblation(b *testing.B, o Options) {
	bench, err := BenchmarkByName("alu2")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	o.Style = Static
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(src, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.PowerUW, "uW")
		b.ReportMetric(res.Report.GateArea, "area")
		b.ReportMetric(res.Report.Delay, "ns")
	}
}

func BenchmarkAblationDAGHeuristic(b *testing.B) {
	// Fanout-division DAG matching vs strict tree partitioning (§3.3).
	b.Run("fanout-division", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV})
	})
	b.Run("tree-partition", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, Mapper: BackendTree})
	})
}

func BenchmarkAblationEpsilon(b *testing.B) {
	// Curve ε-pruning: quality vs curve-size trade-off (§3.1).
	b.Run("exact", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, Epsilon: -1})
	})
	b.Run("eps0.05", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, Epsilon: 0.05})
	})
	b.Run("eps0.5", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, Epsilon: 0.5})
	})
}

func BenchmarkAblationDecomposition(b *testing.B) {
	// Conventional vs MINPOWER vs bounded-height (§2), all under pd-map:
	// Methods IV, V and VI.
	for _, c := range []struct {
		name string
		m    Method
	}{
		{"conventional", MethodIV},
		{"minpower", MethodV},
		{"bounded", MethodVI},
	} {
		b.Run(c.name, func(b *testing.B) {
			synthAblation(b, Options{Method: c.m})
		})
	}
}

func BenchmarkAblationPowerAccounting(b *testing.B) {
	// Method 1 vs Method 2 dynamic-power accounting (§3.1). Method 1 uses
	// exact pin capacitances at the mapped parent; Method 2 prices each
	// node's own charge with the default load (the unknown-load problem).
	b.Run("method1", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV})
	})
	b.Run("method2", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, PowerMethod2: true})
	})
}

func BenchmarkAblationStrongSimplify(b *testing.B) {
	// Espresso-style node simplification vs the cheap containment pass
	// (extension; changes the freedom left to the decomposition).
	b.Run("cheap", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV})
	})
	b.Run("strong", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, StrongSimplify: true})
	})
}

func BenchmarkAblationStrash(b *testing.B) {
	// Structural hashing of the subject graph (extension): shrinks the
	// mapped netlist but narrows the decomposition-strategy gap, which is
	// why it is off by default (the paper's pipeline has no sharing pass).
	b.Run("off", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV})
	})
	b.Run("on", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, Strash: true})
	})
}

func BenchmarkAblationExactCosting(b *testing.B) {
	// Closed-form independence costs vs global-BDD exact costs (§1.4).
	b.Run("closed-form", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV})
	})
	b.Run("bdd-exact", func(b *testing.B) {
		synthAblation(b, Options{Method: MethodV, Exact: true})
	})
}

func BenchmarkAblationTreeConstruction(b *testing.B) {
	// Huffman vs Modified Huffman vs balanced on a quasi-linear instance:
	// Huffman and Modified Huffman must tie (Theorem 2.2); balanced pays.
	alg := huffman.SignalAlgebra{Gate: huffman.GateAnd, Style: huffman.DominoP}
	leaves := make([]huffman.Signal, 12)
	for i := range leaves {
		leaves[i] = huffman.SignalFromProb(float64(i+1) / 13)
	}
	b.Run("huffman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := huffman.Build[huffman.Signal](alg, leaves)
			b.ReportMetric(huffman.TotalCost[huffman.Signal](alg, tr), "activity")
		}
	})
	b.Run("modified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := huffman.BuildModified[huffman.Signal](alg, leaves)
			b.ReportMetric(huffman.TotalCost[huffman.Signal](alg, tr), "activity")
		}
	})
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := huffman.BuildBalanced[huffman.Signal](alg, leaves)
			b.ReportMetric(huffman.TotalCost[huffman.Signal](alg, tr), "activity")
		}
	})
	b.Run("bounded-L4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := huffman.BuildBounded[huffman.Signal](alg, leaves, 4, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(huffman.TotalCost[huffman.Signal](alg, tr), "activity")
		}
	})
}

func BenchmarkDriveRecovery(b *testing.B) {
	// Post-mapping drive-strength power recovery on a timing-pressed
	// ad-map netlist (extension; see EXPERIMENTS.md).
	bench, err := BenchmarkByName("s208")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	lib := Lib2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(src, Options{Method: MethodI, Relax: Float64(0.0001), Style: Static, Library: lib})
		if err != nil {
			b.Fatal(err)
		}
		before := res.Report.PowerUW
		res.Netlist.RecoverDrive(lib, nil)
		b.ReportMetric(res.Netlist.Report.PowerUW, "uW")
		b.ReportMetric(100*(res.Netlist.Report.PowerUW/before-1), "%change")
	}
}

func BenchmarkDecomposeOnly(b *testing.B) {
	// Raw decomposition throughput on a mid-size circuit.
	bench, err := BenchmarkByName("s344")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := decomp.Decompose(context.Background(), src, decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalActivity, "activity")
	}
}

func BenchmarkMapOnly(b *testing.B) {
	// Raw mapping throughput on a prepared subject graph, on one worker so
	// it times the curve kernel rather than the pool.
	bench, err := BenchmarkByName("s344")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	d, err := decomp.Decompose(context.Background(), src, decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
	if err != nil {
		b.Fatal(err)
	}
	lib := Lib2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, err := mapper.Map(context.Background(), d.Network, d.Model, mapper.Options{
			Objective: mapper.PowerDelay, Library: lib, Relax: core.Float64(0.15), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(nl.Report.PowerUW, "uW")
	}
}

// BenchmarkMapOnlyCuts is BenchmarkMapOnly on the cut backend: cut
// enumeration and NPN matching on the strashed AIG feed the same curve
// construction, so its gap to BenchmarkMapOnly is the matching cost.
func BenchmarkMapOnlyCuts(b *testing.B) {
	bench, err := BenchmarkByName("s344")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	d, err := decomp.Decompose(context.Background(), src, decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
	if err != nil {
		b.Fatal(err)
	}
	lib := Lib2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, err := mapper.Map(context.Background(), d.Network, d.Model, mapper.Options{
			Objective: mapper.PowerDelay, Library: lib, Relax: core.Float64(0.15),
			Backend: mapper.BackendCuts, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(nl.Report.PowerUW, "uW")
	}
}

// BenchmarkSynthesizeParallel measures the end-to-end flow at several
// worker-pool sizes on a mid-size circuit. On a multi-core host the
// workers>1 variants should win; on a single-CPU host they only measure
// the pool's overhead, since every schedule degenerates to one runner.
func BenchmarkSynthesizeParallel(b *testing.B) {
	bench, err := BenchmarkByName("alu2")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Build()
	lib := Lib2()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := SynthesizeContext(context.Background(), src, Options{
					Method: MethodVI, Style: Static, Workers: w, Library: lib,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Report.PowerUW, "uW")
			}
		})
	}
}

// BenchmarkRunSuiteParallel measures the harness-level (circuit, method)
// fan-out at several pool sizes.
func BenchmarkRunSuiteParallel(b *testing.B) {
	names := []string{"cm42a", "x2"}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := eval.RunSuite(context.Background(), Methods(),
					core.Options{Style: Static, Workers: w}, names)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(names) {
					b.Fatal("suite shape broken")
				}
			}
		})
	}
}
