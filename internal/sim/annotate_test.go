package sim

import (
	"context"
	"math"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/prob"
)

// exactTruth computes the reference annotations on a private copy so a
// test can compare Annotate's output without the two runs overwriting
// each other's node fields.
func exactTruth(t *testing.T, text string, pp map[string]float64, style huffman.Style) map[string]float64 {
	t.Helper()
	ref := mustParse(t, text)
	if _, err := prob.Compute(ref, pp, style); err != nil {
		t.Fatal(err)
	}
	truth := map[string]float64{}
	for _, n := range ref.TopoOrder() {
		truth[n.Name] = n.Activity
	}
	return truth
}

// TestAnnotateExactByDefault pins backward compatibility: the zero policy
// selects exact BDDs and annotates identically to prob.Compute.
func TestAnnotateExactByDefault(t *testing.T) {
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	truth := exactTruth(t, testBlif, pp, huffman.Static)
	nw := mustParse(t, testBlif)
	res, err := Annotate(context.Background(), nw, pp, AnnotateOptions{Style: huffman.Static})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != prob.Exact || res.Sampled != nil || res.ExactErr != nil {
		t.Fatalf("zero policy did not run clean exact: %+v", res)
	}
	for _, n := range nw.TopoOrder() {
		if n.Activity != truth[n.Name] {
			t.Errorf("node %s: annotated %.6f vs prob.Compute %.6f", n.Name, n.Activity, truth[n.Name])
		}
	}
}

// TestAnnotateExactErrorWithoutAuto keeps the failure contract: a node
// limit under an Exact policy is an error, never a silent approximation.
func TestAnnotateExactErrorWithoutAuto(t *testing.T) {
	nw := mustParse(t, testBlif)
	_, err := Annotate(context.Background(), nw, nil, AnnotateOptions{
		Style: huffman.Static,
		BDD:   bdd.Config{NodeLimit: 4},
	})
	if err == nil {
		t.Fatal("exact policy swallowed a node-limit failure")
	}
	if !bdd.IsNodeLimit(err) {
		t.Fatalf("error does not carry bdd.ErrNodeLimit: %v", err)
	}
}

// TestAnnotateAutoFallsBackOnNodeLimit is the auto policy's safety net: an
// exact build that trips the node limit is retried on the sampling engine,
// with the original failure reported alongside the estimates.
func TestAnnotateAutoFallsBackOnNodeLimit(t *testing.T) {
	pp := map[string]float64{"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.8}
	truth := exactTruth(t, testBlif, pp, huffman.Static)
	nw := mustParse(t, testBlif)
	res, err := Annotate(context.Background(), nw, pp, AnnotateOptions{
		Policy: prob.Policy{Engine: prob.Auto},
		Style:  huffman.Static,
		BDD:    bdd.Config{NodeLimit: 4},
		Sampling: BitwiseOptions{
			Vectors: 40000,
			Seed:    3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != prob.Sampling || res.Sampled == nil {
		t.Fatalf("auto policy did not fall back to sampling: %+v", res)
	}
	if res.ExactErr == nil || !bdd.IsNodeLimit(res.ExactErr) {
		t.Fatalf("fallback did not preserve the node-limit error: %v", res.ExactErr)
	}
	if res.Vectors != 40000 {
		t.Errorf("sampled %d vectors, want the configured 40000", res.Vectors)
	}
	const tol = 0.015
	for _, n := range nw.TopoOrder() {
		if n.Kind == network.Internal && math.Abs(n.Activity-truth[n.Name]) > tol {
			t.Errorf("node %s: sampled activity %.4f vs exact %.4f", n.Name, n.Activity, truth[n.Name])
		}
	}
}

// TestAnnotateAutoThreshold samples outright (no exact attempt, no error)
// when the network exceeds the policy's node threshold.
func TestAnnotateAutoThreshold(t *testing.T) {
	nw := mustParse(t, testBlif)
	res, err := Annotate(context.Background(), nw, nil, AnnotateOptions{
		Policy:   prob.Policy{Engine: prob.Auto, AutoThreshold: 1},
		Style:    huffman.Static,
		Sampling: BitwiseOptions{Vectors: 512, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != prob.Sampling || res.ExactErr != nil {
		t.Fatalf("over-threshold network did not sample directly: %+v", res)
	}
}

// TestAnnotateDefaultsSamplingBudget fills DefaultSampleVectors when the
// caller configured neither a vector count nor a CI target.
func TestAnnotateDefaultsSamplingBudget(t *testing.T) {
	nw := mustParse(t, testBlif)
	res, err := Annotate(context.Background(), nw, nil, AnnotateOptions{
		Policy: prob.Policy{Engine: prob.Sampling},
		Style:  huffman.Static,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vectors != DefaultSampleVectors {
		t.Errorf("defaulted budget %d, want DefaultSampleVectors=%d", res.Vectors, DefaultSampleVectors)
	}
}

// TestAnnotateStyleMapping maps sampled estimates onto per-style
// activities the same way prob does: domino-p uses P(1), domino-n P(0),
// static the measured toggle rate.
func TestAnnotateStyleMapping(t *testing.T) {
	for _, style := range []huffman.Style{huffman.Static, huffman.DominoP, huffman.DominoN} {
		nw := mustParse(t, testBlif)
		res, err := Annotate(context.Background(), nw, nil, AnnotateOptions{
			Policy:   prob.Policy{Engine: prob.Sampling},
			Style:    style,
			Sampling: BitwiseOptions{Vectors: 1024, Seed: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nw.TopoOrder() {
			e := res.Sampled.Estimates[n]
			want := e.Activity
			switch style {
			case huffman.DominoP:
				want = e.Prob1
			case huffman.DominoN:
				want = 1 - e.Prob1
			}
			if n.Activity != want {
				t.Errorf("style %v node %s: annotated %.6f, want %.6f", style, n.Name, n.Activity, want)
			}
		}
	}
}

// TestAnnotateTransForcesSampling: exact BDDs cannot express temporal
// correlation, so a transition map overrides even an Exact policy.
func TestAnnotateTransForcesSampling(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
	res, err := Annotate(context.Background(), nw, pp, AnnotateOptions{
		Style:    huffman.Static,
		Trans:    map[string]float64{"a": 0.1},
		Sampling: BitwiseOptions{Vectors: 2048, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != prob.Sampling || res.ExactErr != nil {
		t.Fatalf("transition map did not force sampling: %+v", res)
	}
	// The sticky input must measure well below the independent rate 0.5.
	for _, n := range nw.PIs {
		if n.Name == "a" {
			if e := res.Sampled.Estimates[n]; math.Abs(e.Activity-0.1) > 0.03 {
				t.Errorf("correlated PI a: toggle rate %.4f, want ~0.1", e.Activity)
			}
		}
	}
	// An infeasible transition map surfaces as a validation error.
	if _, err := Annotate(context.Background(), nw, map[string]float64{"a": 0.05}, AnnotateOptions{
		Style:    huffman.Static,
		Trans:    map[string]float64{"a": 0.9},
		Sampling: BitwiseOptions{Vectors: 64, Seed: 4},
	}); err == nil {
		t.Error("infeasible transition map accepted")
	}
}
