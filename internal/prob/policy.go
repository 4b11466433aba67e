package prob

import (
	"fmt"
	"strings"

	"powermap/internal/network"
)

// Engine selects how switching activities are computed: the exact global
// BDD model of this package, or the bit-parallel Monte-Carlo sampling
// engine of internal/sim. The Auto engine decides per network: exact below
// a node-count threshold, sampling above — and, when an exact build still
// runs into bdd.ErrNodeLimit, falls back to sampling instead of failing.
type Engine int

const (
	// Exact always builds the exact BDD probability model (the zero value:
	// existing callers keep their behavior).
	Exact Engine = iota
	// Sampling always uses the bit-parallel sampling engine.
	Sampling
	// Auto picks exact for networks at or below the policy threshold and
	// sampling above it, with a sampling fallback on bdd.ErrNodeLimit.
	Auto
)

// String names the engine as the CLI flags spell it.
func (e Engine) String() string {
	switch e {
	case Exact:
		return "exact"
	case Sampling:
		return "sample"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves an activity-engine name, case-insensitively:
// exact (or ""), sample (or sampling) or auto.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "", "exact":
		return Exact, nil
	case "sample", "sampling":
		return Sampling, nil
	case "auto":
		return Auto, nil
	}
	return 0, fmt.Errorf("unknown activity engine %q (want exact, sample or auto)", s)
}

// DefaultAutoThreshold is the Auto node-count threshold when
// Policy.AutoThreshold is zero. The bundled benchmark suite sits far below
// it, so Auto preserves exact results there by default; networks beyond it
// are the regime where global BDDs stop fitting node limits.
const DefaultAutoThreshold = 4096

// Policy is the activity-engine decision: which engine to run, and where
// Auto draws the exact/sampling line. The zero value is the historical
// behavior (always exact).
type Policy struct {
	Engine Engine
	// AutoThreshold is the reachable-node count above which Auto selects
	// sampling (0 selects DefaultAutoThreshold).
	AutoThreshold int
}

// Decide resolves the policy for a concrete network: the returned engine
// is Exact or Sampling, never Auto.
func (p Policy) Decide(s network.Stats) Engine {
	switch p.Engine {
	case Sampling:
		return Sampling
	case Auto:
		th := p.AutoThreshold
		if th <= 0 {
			th = DefaultAutoThreshold
		}
		if s.Nodes > th {
			return Sampling
		}
		return Exact
	default:
		return Exact
	}
}
