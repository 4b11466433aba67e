// Package sim implements simulation-based switching-activity estimation
// on Boolean networks: Monte-Carlo zero-delay estimation that
// cross-validates the exact BDD probabilities of internal/prob on random
// input streams (the paper's model, Section 1.4).
//
// The engine (ActivitiesBitwise, ActivitiesBitwiseFrom) is bit-parallel:
// it packs 64 sample lanes per uint64 word over a precompiled evaluation
// plan and reports normal-approximation confidence intervals. A stream is
// an uncounted predecessor draw followed by the counted vectors. The
// package tests keep a scalar one-vector-at-a-time engine as the oracle:
// fed the same draw transcript, both count bit-identical ones and toggles.
//
// Annotate dispatches between exact BDDs and the sampling engine under a
// prob.Policy (exact, sampling, or auto with a node-limit fallback).
// Unit-delay glitch-aware counting on mapped netlists lives in
// internal/glitch.
package sim

// Estimate is a per-signal simulation result.
type Estimate struct {
	Prob1    float64 // fraction of time the signal is 1
	Activity float64 // transitions per cycle (zero-delay: 0 or 1 per pair)
	// Ones, Toggles and Vectors are the exact integer counts behind Prob1
	// and Activity; the cross-engine tests compare them bit-for-bit
	// against the scalar oracle.
	Ones    int64
	Toggles int64
	Vectors int
	// Prob1CI and ActivityCI are normal-approximation confidence-interval
	// half-widths, filled by the sampling engine (ActivitiesBitwise) at
	// its configured confidence level; zero when not computed.
	Prob1CI    float64
	ActivityCI float64
}

// VectorSource draws one primary-input assignment into dst (keyed by PI
// name). Implementations may model arbitrary spatial correlation between
// inputs; temporal independence between consecutive calls is assumed by
// the zero-delay activity interpretation.
type VectorSource func(dst map[string]bool)

// mcChunk is the Monte-Carlo chunk length of ActivitiesBitwise.
// The chunk partition depends only on the vector count, never on the
// worker count, so the merged result is identical for every pool size.
const mcChunk = 512

// mixSeed derives the RNG seed of one chunk from the base seed with a
// splitmix64-style finalizer, decorrelating nearby chunk indices.
func mixSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
