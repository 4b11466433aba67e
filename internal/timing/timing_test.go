package timing

import (
	"context"
	"math"
	"testing"

	"powermap/internal/blif"
	"powermap/internal/network"
)

func mustParse(t *testing.T, text string) *network.Network {
	t.Helper()
	nw, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

const chainBlif = `
.model chain
.inputs a b c d
.outputs y z
.names a b t1
11 1
.names t1 c t2
11 1
.names t2 d y
11 1
.names a b z
11 1
.end
`

func TestAnnotateUnitArrival(t *testing.T) {
	nw := mustParse(t, chainBlif)
	delay := AnnotateUnitContext(context.Background(), nw, UnitOptions{})
	if delay != 3 {
		t.Errorf("network delay = %v, want 3", delay)
	}
	if got := nw.NodeByName("t1").Arrival; got != 1 {
		t.Errorf("arrival(t1) = %v, want 1", got)
	}
	if got := nw.NodeByName("y").Arrival; got != 3 {
		t.Errorf("arrival(y) = %v, want 3", got)
	}
}

func TestAnnotateUnitSlack(t *testing.T) {
	nw := mustParse(t, chainBlif)
	AnnotateUnitContext(context.Background(), nw, UnitOptions{})
	// With default required = max arrival = 3, the chain is critical.
	for _, name := range []string{"t1", "t2", "y"} {
		if s := nw.NodeByName(name).Slack(); math.Abs(s) > 1e-12 {
			t.Errorf("slack(%s) = %v, want 0", name, s)
		}
	}
	// z finishes at 1 but is required at 3: slack 2.
	if s := nw.NodeByName("z").Slack(); math.Abs(s-2) > 1e-12 {
		t.Errorf("slack(z) = %v, want 2", s)
	}
	if ws := WorstSlack(nw); math.Abs(ws) > 1e-12 {
		t.Errorf("worst slack = %v, want 0", ws)
	}
}

func TestAnnotateUnitNegativeSlack(t *testing.T) {
	nw := mustParse(t, chainBlif)
	AnnotateUnitContext(context.Background(), nw, UnitOptions{PORequired: map[string]float64{"y": 2, "z": 2}})
	if s := nw.NodeByName("y").Slack(); math.Abs(s-(-1)) > 1e-12 {
		t.Errorf("slack(y) = %v, want -1", s)
	}
	if ws := WorstSlack(nw); math.Abs(ws-(-1)) > 1e-12 {
		t.Errorf("worst slack = %v, want -1", ws)
	}
}

func TestAnnotateUnitPIArrival(t *testing.T) {
	nw := mustParse(t, chainBlif)
	delay := AnnotateUnitContext(context.Background(), nw, UnitOptions{PIArrival: map[string]float64{"d": 5}})
	// d arrives at 5, so y arrives at 6.
	if delay != 6 {
		t.Errorf("delay = %v, want 6", delay)
	}
}

func TestAnnotateUnitDefaultRequired(t *testing.T) {
	nw := mustParse(t, chainBlif)
	AnnotateUnitContext(context.Background(), nw, UnitOptions{DefaultRequired: 10})
	if s := nw.NodeByName("y").Slack(); math.Abs(s-7) > 1e-12 {
		t.Errorf("slack(y) = %v, want 7", s)
	}
}

func TestAnnotateUnitNoOutputs(t *testing.T) {
	// A network with no outputs has zero delay by definition.
	nw := network.New("empty")
	nw.AddPI("a")
	if delay := AnnotateUnitContext(context.Background(), nw, UnitOptions{}); delay != 0 {
		t.Errorf("delay = %v, want 0", delay)
	}
}

func TestSlackDistributionMixedRequired(t *testing.T) {
	// Listing only one output in PORequired leaves the others on the
	// default (latest arrival), so slack distributes per output cone:
	// the y cone carries the explicit -1 violation while z stays relaxed.
	nw := mustParse(t, chainBlif)
	AnnotateUnitContext(context.Background(), nw, UnitOptions{PORequired: map[string]float64{"y": 2}})
	for name, want := range map[string]float64{"y": -1, "t2": -1, "t1": -1, "z": 2} {
		if s := nw.NodeByName(name).Slack(); math.Abs(s-want) > 1e-12 {
			t.Errorf("slack(%s) = %v, want %v", name, s, want)
		}
	}
	if ws := WorstSlack(nw); math.Abs(ws-(-1)) > 1e-12 {
		t.Errorf("worst slack = %v, want -1", ws)
	}
	// t1 feeds both cones and must take the tighter (negative) requirement.
	if r := nw.NodeByName("t1").Required; math.Abs(r-0) > 1e-12 {
		t.Errorf("required(t1) = %v, want 0", r)
	}
}

func TestRequiredMinOverFanouts(t *testing.T) {
	// A node feeding two paths takes the tighter required time.
	text := `
.model fan
.inputs a b
.outputs y z
.names a b t
11 1
.names t y
1 1
.names t u
0 1
.names u z
1 1
.end
`
	nw := mustParse(t, text)
	AnnotateUnitContext(context.Background(), nw, UnitOptions{})
	// t arrives at 1; y at 2, z at 3; default required = 3.
	// Required(t) = min(required(y)-1, required(u)-1) = min(2, 1) = 1.
	tn := nw.NodeByName("t")
	if tn.Required != 1 {
		t.Errorf("required(t) = %v, want 1", tn.Required)
	}
	if s := tn.Slack(); math.Abs(s) > 1e-12 {
		t.Errorf("slack(t) = %v, want 0", s)
	}
}
