package sim

import (
	"context"
	"math"
	"testing"

	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/prob"
)

// checkCountsEqual compares the exact integer counts of two estimate maps
// over every reachable node.
func checkCountsEqual(t *testing.T, nw *network.Network, label string, want, got map[*network.Node]Estimate) {
	t.Helper()
	for _, n := range nw.TopoOrder() {
		w, g := want[n], got[n]
		if w.Ones != g.Ones || w.Toggles != g.Toggles || w.Vectors != g.Vectors {
			t.Errorf("%s node %s: scalar (ones=%d toggles=%d n=%d) vs bitwise (ones=%d toggles=%d n=%d)",
				label, n.Name, w.Ones, w.Toggles, w.Vectors, g.Ones, g.Toggles, g.Vectors)
		}
	}
}

// TestBitwiseFromMatchesScalarSharedTranscript is the engine's core
// contract: fed the exact same draw transcript, the bit-parallel engine's
// one/toggle counts are bit-identical to the scalar engine's — across
// vector counts that land on, before, and after word boundaries.
func TestBitwiseFromMatchesScalarSharedTranscript(t *testing.T) {
	nw := mustParse(t, testBlif)
	probCases := map[string]map[string]float64{
		"uniform": nil,
		"skewed":  {"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.9},
	}
	for label, pp := range probCases {
		for _, vectors := range []int{1, 2, 63, 64, 65, 127, 128, 129, 777} {
			const seed = 11
			want, err := ActivitiesFrom(nw, IndependentSource(nw, pp, seed), vectors)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ActivitiesBitwiseFrom(nw, PackVectors(nw, IndependentSource(nw, pp, seed)), vectors)
			if err != nil {
				t.Fatal(err)
			}
			checkCountsEqual(t, nw, label, want, got)
		}
	}
}

// TestBitwiseMatchesActivitiesParallel pins the chunked mode to a
// per-chunk loop over the scalar oracle: with a packed IndependentSource
// per chunk (seeded mixSeed(seed, c), mcChunk vectors each), the chunked
// ActivitiesBitwise reproduces the summed scalar counts exactly —
// including the short tail chunk and vector counts that are not multiples
// of the word or chunk size.
func TestBitwiseMatchesActivitiesParallel(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	const seed = 7
	for _, vectors := range []int{1, 63, 64, 65, 511, 512, 513, 1000, 2048} {
		want := map[*network.Node]Estimate{}
		for c := 0; c*mcChunk < vectors; c++ {
			est, err := ActivitiesFrom(nw, IndependentSource(nw, pp, mixSeed(seed, c)), min(mcChunk, vectors-c*mcChunk))
			if err != nil {
				t.Fatal(err)
			}
			for n, e := range est {
				w := want[n]
				w.Ones += e.Ones
				w.Toggles += e.Toggles
				w.Vectors += e.Vectors
				want[n] = w
			}
		}
		got, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{
			Vectors: vectors,
			Seed:    seed,
			Workers: 3,
			Source: func(chunkSeed int64) WordSource {
				return PackVectors(nw, IndependentSource(nw, pp, chunkSeed))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkCountsEqual(t, nw, "chunked", want, got.Estimates)
		if got.Vectors != vectors {
			t.Errorf("vectors=%d: result reports %d vectors", vectors, got.Vectors)
		}
	}
}

// TestBitwiseDeterministicAcrossWorkers is the concurrency contract: the
// chunk partition depends only on the vector count, so every worker count
// produces identical estimates. 512·9 + 265 vectors make ten chunks, more
// than the largest pool, and exercise both tail masks: the last chunk is
// short, and its 265 vectors end mid-word.
func TestBitwiseDeterministicAcrossWorkers(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	var want *BitwiseResult
	for _, w := range []int{1, 2, 8} {
		got, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{
			Vectors: mcChunk*9 + 265,
			Seed:    42,
			Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if w == 1 {
			want = got
			continue
		}
		for _, n := range nw.TopoOrder() {
			if got.Estimates[n] != want.Estimates[n] {
				t.Errorf("workers=%d node %s: %+v != sequential %+v", w, n.Name, got.Estimates[n], want.Estimates[n])
			}
		}
		if got.MaxActivityCI != want.MaxActivityCI || got.Vectors != want.Vectors {
			t.Errorf("workers=%d: summary (%v, %d) != sequential (%v, %d)",
				w, got.MaxActivityCI, got.Vectors, want.MaxActivityCI, want.Vectors)
		}
	}
}

// TestBitwiseValidation rejects empty budgets, out-of-range probabilities
// and impossible confidence levels.
func TestBitwiseValidation(t *testing.T) {
	nw := mustParse(t, testBlif)
	ctx := context.Background()
	if _, err := ActivitiesBitwise(ctx, nw, nil, BitwiseOptions{}); err == nil {
		t.Error("zero vectors and zero CI target accepted")
	}
	if _, err := ActivitiesBitwise(ctx, nw, map[string]float64{"a": 1.5}, BitwiseOptions{Vectors: 64}); err == nil {
		t.Error("P(a=1) = 1.5 accepted")
	}
	if _, err := ActivitiesBitwise(ctx, nw, nil, BitwiseOptions{Vectors: 64, Confidence: 1.5}); err == nil {
		t.Error("confidence 1.5 accepted")
	}
	if _, err := ActivitiesBitwiseFrom(nw, IndependentWords(nw, nil, 1), 0); err == nil {
		t.Error("zero vectors accepted by ActivitiesBitwiseFrom")
	}
}

// TestBitwiseMatchesBDD cross-validates the fast path (IndependentWords,
// one RNG word per PI at p = 0.5 and per-lane Bernoulli otherwise) against
// the exact BDD probabilities.
func TestBitwiseMatchesBDD(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	if _, err := prob.Compute(nw, pp, huffman.Static); err != nil {
		t.Fatal(err)
	}
	res, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{Vectors: 40000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.015
	for _, n := range nw.TopoOrder() {
		e := res.Estimates[n]
		if math.Abs(e.Prob1-n.Prob1) > tol {
			t.Errorf("node %s: MC prob %.4f vs BDD %.4f", n.Name, e.Prob1, n.Prob1)
		}
		if math.Abs(e.Activity-n.Activity) > tol {
			t.Errorf("node %s: MC activity %.4f vs BDD %.4f", n.Name, e.Activity, n.Activity)
		}
	}
	if res.WordsEvaluated <= 0 {
		t.Error("no words evaluated reported")
	}
}

// TestBitwiseCICoverage is the statistical-correctness battery: across many
// independently seeded runs, the reported 95% intervals must cover the
// exact BDD truth at (at least nearly) the nominal rate, for both the
// signal probability and the lag-corrected activity estimator. With 150
// trials the binomial 3.4-sigma band around 0.95 reaches down to ~0.89,
// so a per-node floor of 0.89 fails only on a genuinely undercovering
// interval, never on seed luck.
func TestBitwiseCICoverage(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	if _, err := prob.Compute(nw, pp, huffman.Static); err != nil {
		t.Fatal(err)
	}
	truthP := map[*network.Node]float64{}
	truthA := map[*network.Node]float64{}
	order := nw.TopoOrder()
	for _, n := range order {
		truthP[n] = n.Prob1
		truthA[n] = n.Activity
	}
	const (
		runs    = 150
		vectors = 2048
		floor   = 0.89
	)
	coverP := map[*network.Node]int{}
	coverA := map[*network.Node]int{}
	for run := 0; run < runs; run++ {
		res, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{
			Vectors: vectors, Seed: int64(1000 + run),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range order {
			e := res.Estimates[n]
			if math.Abs(e.Prob1-truthP[n]) <= e.Prob1CI {
				coverP[n]++
			}
			if math.Abs(e.Activity-truthA[n]) <= e.ActivityCI {
				coverA[n]++
			}
		}
	}
	for _, n := range order {
		if c := float64(coverP[n]) / runs; c < floor {
			t.Errorf("node %s: Prob1 CI covers truth in %.1f%% of %d runs (want >= %.0f%%)",
				n.Name, 100*c, runs, 100*floor)
		}
		if c := float64(coverA[n]) / runs; c < floor {
			t.Errorf("node %s: activity CI covers truth in %.1f%% of %d runs (want >= %.0f%%)",
				n.Name, 100*c, runs, 100*floor)
		}
	}
}

// TestBitwiseTargetCI exercises sequential-batch mode: the run stops once
// every node's activity CI is under the target, samples a whole number of
// batches, needs more vectors for tighter targets, and is bit-identical
// for every worker count (the stop rule only looks at batch boundaries).
func TestBitwiseTargetCI(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	run := func(target float64, workers int) *BitwiseResult {
		t.Helper()
		res, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{
			TargetCI: target,
			Seed:     9,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	loose := run(0.02, 1)
	tight := run(0.004, 1)
	batch := ciBatchChunks * mcChunk
	for _, res := range []*BitwiseResult{loose, tight} {
		if res.Vectors%batch != 0 {
			t.Errorf("sampled %d vectors, not a whole number of %d-vector batches", res.Vectors, batch)
		}
	}
	if loose.MaxActivityCI > 0.02 {
		t.Errorf("loose run stopped at CI %.5f > target 0.02", loose.MaxActivityCI)
	}
	if tight.MaxActivityCI > 0.004 {
		t.Errorf("tight run stopped at CI %.5f > target 0.004", tight.MaxActivityCI)
	}
	if tight.Vectors <= loose.Vectors {
		t.Errorf("tighter target sampled %d vectors, loose target %d; want strictly more",
			tight.Vectors, loose.Vectors)
	}
	for _, w := range []int{2, 8} {
		again := run(0.004, w)
		if again.Vectors != tight.Vectors || again.MaxActivityCI != tight.MaxActivityCI {
			t.Errorf("workers=%d: TargetCI run (%d vectors, CI %.6f) diverged from sequential (%d, %.6f)",
				w, again.Vectors, again.MaxActivityCI, tight.Vectors, tight.MaxActivityCI)
		}
		for _, n := range nw.TopoOrder() {
			if again.Estimates[n] != tight.Estimates[n] {
				t.Errorf("workers=%d node %s: %+v != sequential %+v", w, n.Name, again.Estimates[n], tight.Estimates[n])
			}
		}
	}
}

// TestBitwiseTargetCIRespectsMaxVectors caps a hopeless target at the
// vector budget instead of sampling forever.
func TestBitwiseTargetCIRespectsMaxVectors(t *testing.T) {
	nw := mustParse(t, testBlif)
	res, err := ActivitiesBitwise(context.Background(), nw, nil, BitwiseOptions{
		TargetCI: 1e-9,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vectors != DefaultMaxVectors {
		t.Errorf("sampled %d vectors under an unreachable target, want the %d cap", res.Vectors, DefaultMaxVectors)
	}
	if res.MaxActivityCI <= 1e-9 {
		t.Errorf("CI %.2e is implausibly under the unreachable target", res.MaxActivityCI)
	}
}

// TestCompileProgramConstants lowers constant nodes to all-zero/all-one
// words: a cover with no cubes is constant 0, a cover with one all-DC cube
// is the tautology.
func TestCompileProgramConstants(t *testing.T) {
	nw := mustParse(t, `
.model consts
.inputs a
.outputs y z
.names k0
.names k1
1
.names a k0 k1 y
111 1
.names a z
1 1
.end
`)
	res, err := ActivitiesBitwiseFrom(nw, IndependentWords(nw, nil, 5), 320)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nw.TopoOrder() {
		e := res[n]
		switch n.Name {
		case "k0":
			if e.Ones != 0 || e.Toggles != 0 {
				t.Errorf("constant 0 node: ones=%d toggles=%d", e.Ones, e.Toggles)
			}
		case "k1":
			if e.Ones != 320 || e.Toggles != 0 {
				t.Errorf("constant 1 node: ones=%d toggles=%d", e.Ones, e.Toggles)
			}
		}
	}
}
