package sim

import (
	"fmt"
	"math/rand"

	"powermap/internal/network"
)

// Lag-one temporal correlation: the paper's zero-delay model (and the
// independent sources above) assume consecutive input vectors are drawn
// independently, so a PI's toggle rate is pinned to 2·p·(1-p). Real input
// streams are usually stickier (or, for clock-like inputs, more agitated).
// LagOneSource models each PI as a stationary two-state Markov chain with
// marginal P(pi=1) = p and *prescribed* toggle probability a:
//
//	P(flip | prev=1) = a / (2p)        P(flip | prev=0) = a / (2(1-p))
//
// Detailed balance gives the stationary distribution π(1) = p, and the
// stationary toggle rate is p·a/(2p) + (1-p)·a/(2(1-p)) = a. Feasibility
// requires a ≤ 2·min(p, 1-p) (both flip probabilities ≤ 1); a = 2p(1-p)
// recovers the independent source's statistics.

// LagOneSource returns a VectorSource with lag-one temporal correlation:
// P(pi=1) from piProb (default 0.5) and per-cycle toggle probability from
// piTrans (default 2p(1-p), i.e. temporally independent). The first draw
// comes from the stationary distribution.
func LagOneSource(nw *network.Network, piProb, piTrans map[string]float64, seed int64) (VectorSource, error) {
	type chain struct {
		p            float64 // stationary P(1)
		flip1, flip0 float64 // flip probability given prev 1 / prev 0
	}
	chains := make([]chain, len(nw.PIs))
	for i, pi := range nw.PIs {
		p, ok := piProb[pi.Name]
		if !ok {
			p = 0.5
		}
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("sim: P(%s=1) = %v out of [0,1]", pi.Name, p)
		}
		a, ok := piTrans[pi.Name]
		if !ok {
			a = 2 * p * (1 - p)
		}
		limit := 2 * p
		if 2*(1-p) < limit {
			limit = 2 * (1 - p)
		}
		if !(a >= 0 && a <= limit) {
			return nil, fmt.Errorf("sim: toggle probability %v of %s out of [0, 2·min(p,1-p)] = [0, %v] for p = %v",
				a, pi.Name, limit, p)
		}
		c := chain{p: p}
		if p > 0 {
			c.flip1 = a / (2 * p)
		}
		if p < 1 {
			c.flip0 = a / (2 * (1 - p))
		}
		chains[i] = c
	}
	r := rand.New(rand.NewSource(seed))
	prev := make([]bool, len(chains))
	started := false
	return func(dst map[string]bool) {
		for i, c := range chains {
			var v bool
			if !started {
				v = r.Float64() < c.p
			} else {
				flip := c.flip0
				if prev[i] {
					flip = c.flip1
				}
				v = prev[i] != (r.Float64() < flip)
			}
			prev[i] = v
			dst[nw.PIs[i].Name] = v
		}
		started = true
	}, nil
}

// LagOneWordFactory validates the lag-one parameters once and returns a
// per-chunk WordSource factory for ActivitiesBitwise: each chunk packs an
// independently seeded lag-one stream.
func LagOneWordFactory(nw *network.Network, piProb, piTrans map[string]float64) (func(chunkSeed int64) WordSource, error) {
	if _, err := LagOneSource(nw, piProb, piTrans, 0); err != nil {
		return nil, err
	}
	return func(chunkSeed int64) WordSource {
		src, _ := LagOneSource(nw, piProb, piTrans, chunkSeed)
		return PackVectors(nw, src)
	}, nil
}
