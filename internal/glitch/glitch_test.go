package glitch

import (
	"context"
	"math"
	"testing"

	"powermap/internal/blif"
	"powermap/internal/core"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
	"powermap/internal/network"
	"powermap/internal/power"
)

const testBlif = `
.model simtest
.inputs a b c d
.outputs y z
.names a b t1
11 1
.names t1 c t2
1- 1
-1 1
.names t2 d y
10 1
01 1
.names a c z
11 1
.end
`

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// mapTest builds a mapped netlist for glitch tests.
func mapTest(t *testing.T) (*mapper.Netlist, *network.Network) {
	t.Helper()
	nw := mustParse(t, testBlif)
	d, err := decomp.Decompose(context.Background(), nw, decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mapper.Map(context.Background(), d.Network, d.Model, mapper.Options{
		Objective: mapper.PowerDelay, Library: genlib.Lib2(), Relax: core.Float64(0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return nl, d.Network
}

func TestGlitchBoundsZeroDelay(t *testing.T) {
	nl, sub := mapTest(t)
	rep, err := Simulate(nl, sub, nil, 3000, 11, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Per signal, unit-delay transitions on the same vectors must be at
	// least the zero-delay toggles.
	for s, tr := range rep.Transitions {
		if tr+1e-12 < rep.ZeroDelay[s] {
			t.Errorf("signal %s: transitions %.4f < zero-delay toggles %.4f",
				s.Name, tr, rep.ZeroDelay[s])
		}
	}
	if rep.PowerUW+1e-9 < rep.ZeroDelayPowerUW {
		t.Errorf("glitch power %.3f below zero-delay power %.3f",
			rep.PowerUW, rep.ZeroDelayPowerUW)
	}
}

func TestGlitchZeroDelayMatchesAnalytic(t *testing.T) {
	// The simulated zero-delay power over the mapped loads must approach
	// the netlist's analytic report (exact BDD activities × same loads).
	nl, sub := mapTest(t)
	rep, err := Simulate(nl, sub, nil, 30000, 13, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	analytic := nl.Report.PowerUW
	if math.Abs(rep.ZeroDelayPowerUW-analytic) > 0.08*analytic {
		t.Errorf("simulated zero-delay power %.3f vs analytic %.3f (>8%% apart)",
			rep.ZeroDelayPowerUW, analytic)
	}
}

func TestGlitchValidation(t *testing.T) {
	nl, sub := mapTest(t)
	if _, err := Simulate(nl, sub, nil, 0, 1, power.Default()); err == nil {
		t.Error("zero vectors accepted")
	}
}

func TestXorTreeGlitches(t *testing.T) {
	// A cascade of XORs with skewed arrival paths glitches under unit
	// delay: expect strictly more transitions than zero-delay toggles in
	// aggregate.
	text := `
.model xorchain
.inputs a b c d e
.outputs y
.names a b x1
10 1
01 1
.names x1 c x2
10 1
01 1
.names x2 d x3
10 1
01 1
.names x3 e y
10 1
01 1
.end
`
	nw := mustParse(t, text)
	d, err := decomp.Decompose(context.Background(), nw, decomp.Options{Strategy: decomp.MinPower, Style: huffman.Static})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mapper.Map(context.Background(), d.Network, d.Model, mapper.Options{
		Objective: mapper.AreaDelay, Library: genlib.Lib2(), Relax: core.Float64(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(nl, d.Network, nil, 4000, 3, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	sumT, sumZ := 0.0, 0.0
	for s := range rep.Transitions {
		sumT += rep.Transitions[s]
		sumZ += rep.ZeroDelay[s]
	}
	if sumT <= sumZ {
		t.Errorf("xor cascade shows no glitching: %.3f vs %.3f", sumT, sumZ)
	}
}
