package sim

import (
	"context"
	"math"
	"testing"
)

const lagBlif = `
.model lag
.inputs a b
.outputs y
.names a b y
11 1
.end
`

// TestLagOneStationaryStatistics checks the Markov-chain construction
// delivers what it promises: the stationary marginal P(pi=1) = p and the
// prescribed per-cycle toggle rate a, measured on a long sampled stream.
func TestLagOneStationaryStatistics(t *testing.T) {
	nw := mustParse(t, lagBlif)
	pp := map[string]float64{"a": 0.7, "b": 0.5}
	trans := map[string]float64{"a": 0.2, "b": 0.8} // sticky vs agitated
	factory, err := LagOneWordFactory(nw, pp, trans)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{
		Vectors: 1 << 16,
		Seed:    5,
		Source:  factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.02
	for _, n := range nw.PIs {
		e := res.Estimates[n]
		if math.Abs(e.Prob1-pp[n.Name]) > tol {
			t.Errorf("PI %s: measured P(1) %.4f vs prescribed %.4f", n.Name, e.Prob1, pp[n.Name])
		}
		if math.Abs(e.Activity-trans[n.Name]) > tol {
			t.Errorf("PI %s: measured toggle rate %.4f vs prescribed %.4f", n.Name, e.Activity, trans[n.Name])
		}
	}
}

// TestLagOneDefaultsToIndependentRate omits the transition map for one PI:
// its toggle rate must default to the independent stream's 2p(1-p).
func TestLagOneDefaultsToIndependentRate(t *testing.T) {
	nw := mustParse(t, lagBlif)
	pp := map[string]float64{"a": 0.3, "b": 0.5}
	factory, err := LagOneWordFactory(nw, pp, map[string]float64{"b": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ActivitiesBitwise(context.Background(), nw, pp, BitwiseOptions{
		Vectors: 1 << 16,
		Seed:    8,
		Source:  factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	var a *Estimate
	for _, n := range nw.PIs {
		if n.Name == "a" {
			e := res.Estimates[n]
			a = &e
		}
	}
	want := 2 * 0.3 * 0.7
	if a == nil || math.Abs(a.Activity-want) > 0.02 {
		t.Errorf("defaulted PI toggle rate %v, want ~%.3f", a, want)
	}
}

// TestLagOneValidation rejects infeasible chains: the toggle probability
// is bounded by 2·min(p, 1-p), and probabilities must be in [0,1].
func TestLagOneValidation(t *testing.T) {
	nw := mustParse(t, lagBlif)
	cases := []struct {
		name  string
		prob  map[string]float64
		trans map[string]float64
	}{
		{"toggle above limit", map[string]float64{"a": 0.1}, map[string]float64{"a": 0.5}},
		{"negative toggle", nil, map[string]float64{"a": -0.1}},
		{"prob above one", map[string]float64{"a": 1.5}, nil},
		{"NaN toggle", nil, map[string]float64{"a": math.NaN()}},
		{"NaN prob", map[string]float64{"a": math.NaN()}, nil},
	}
	for _, c := range cases {
		if _, err := LagOneSource(nw, c.prob, c.trans, 1); err == nil {
			t.Errorf("%s: LagOneSource accepted it", c.name)
		}
		if _, err := LagOneWordFactory(nw, c.prob, c.trans); err == nil {
			t.Errorf("%s: LagOneWordFactory accepted it", c.name)
		}
	}
}

// TestLagOnePackedMatchesScalar pins the packed adapter on a correlated
// source: the bit-parallel engine fed a packed lag-one stream produces
// counts bit-identical to the scalar engine reading the same stream.
func TestLagOnePackedMatchesScalar(t *testing.T) {
	nw := mustParse(t, testBlif)
	pp := map[string]float64{"a": 0.6, "b": 0.5, "c": 0.4, "d": 0.5}
	trans := map[string]float64{"a": 0.1, "c": 0.7}
	for _, vectors := range []int{65, 777} {
		const seed = 21
		scalarSrc, err := LagOneSource(nw, pp, trans, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ActivitiesFrom(nw, scalarSrc, vectors)
		if err != nil {
			t.Fatal(err)
		}
		packedSrc, err := LagOneSource(nw, pp, trans, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ActivitiesBitwiseFrom(nw, PackVectors(nw, packedSrc), vectors)
		if err != nil {
			t.Fatal(err)
		}
		checkCountsEqual(t, nw, "lag-one", want, got)
	}
}
