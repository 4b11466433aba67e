package sim

import (
	"context"

	"powermap/internal/bdd"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/prob"
)

// DefaultSampleVectors is the sampling budget when the caller set neither
// a vector count nor a CI target.
const DefaultSampleVectors = 1 << 16

// AnnotateOptions configures Annotate.
type AnnotateOptions struct {
	// Policy picks the engine (exact BDDs, sampling, or auto). The zero
	// value is exact.
	Policy prob.Policy
	// Style maps sampled estimates onto per-style activities the same way
	// prob does: static uses the measured toggle rate, domino-p P(1),
	// domino-n P(0).
	Style huffman.Style
	// BDD tunes the kernel of an exact build; a wrapped bdd.ErrNodeLimit
	// from it triggers the Auto fallback to sampling.
	BDD bdd.Config
	// Sampling configures the bit-parallel engine when it runs. A zero
	// Vectors/TargetCI defaults to DefaultSampleVectors; Obs is overridden
	// by the Obs field below.
	Sampling BitwiseOptions
	// Trans, when non-nil, samples with lag-one temporally correlated
	// inputs: per-PI toggle probabilities (see LagOneSource). Exact BDDs
	// cannot express temporal correlation, so Trans forces sampling.
	Trans map[string]float64
	// Obs and Journal record which engine ran and its statistics.
	Obs     *obs.Scope
	Journal *journal.Journal
}

// AnnotateResult reports which engine annotated the network.
type AnnotateResult struct {
	// Engine is the engine that produced the annotations (never Auto).
	Engine prob.Engine
	// Sampled is the sampling engine's result (nil when exact ran).
	Sampled *BitwiseResult
	// Vectors is the sampled vector count (0 when exact ran).
	Vectors int
	// ExactErr is the node-limit error an Auto policy recovered from by
	// sampling; nil when exact succeeded or was never attempted.
	ExactErr error
}

// Annotate computes Prob1 and Activity for every reachable node of nw
// under the configured activity policy: exact global BDDs, bit-parallel
// sampling, or Auto (exact below the policy's node threshold, sampling
// above — and sampling as the fallback when an exact build exceeds the
// BDD node limit). The chosen engine is reported via the result, obs
// counters (sim.engine_exact / sim.engine_sampling) and a journal
// "activity.engine" event.
func Annotate(ctx context.Context, nw *network.Network, piProb map[string]float64, o AnnotateOptions) (*AnnotateResult, error) {
	sc := o.Obs
	res := &AnnotateResult{}
	engine := o.Policy.Decide(nw.Stats())
	if o.Trans != nil {
		engine = prob.Sampling
	}
	if engine == prob.Exact {
		span := sc.StartCtx(ctx, "sim.annotate-exact")
		_, err := prob.ComputeWith(ctx, nw, piProb, o.Style, o.BDD)
		span.End()
		if err == nil {
			sc.Counter("sim.engine_exact").Add(1)
			o.Journal.Event("activity.engine", map[string]any{
				"engine": prob.Exact.String(), "circuit": nw.Name,
			})
			res.Engine = prob.Exact
			return res, nil
		}
		if o.Policy.Engine != prob.Auto || !bdd.IsNodeLimit(err) {
			return nil, err
		}
		res.ExactErr = err
	}

	bo := o.Sampling
	bo.Obs = sc
	if bo.Vectors <= 0 && bo.TargetCI <= 0 {
		bo.Vectors = DefaultSampleVectors
	}
	if o.Trans != nil && bo.Source == nil {
		factory, err := LagOneWordFactory(nw, piProb, o.Trans)
		if err != nil {
			return nil, err
		}
		bo.Source = factory
	}
	span := sc.StartCtx(ctx, "sim.annotate-sampling")
	span.SetAttr("vectors", bo.Vectors).SetAttr("seed", bo.Seed)
	br, err := ActivitiesBitwise(ctx, nw, piProb, bo)
	span.End()
	if err != nil {
		return nil, err
	}
	for n, e := range br.Estimates {
		n.Prob1 = e.Prob1
		switch o.Style {
		case huffman.Static:
			n.Activity = e.Activity // measured toggle rate
		case huffman.DominoP:
			n.Activity = e.Prob1
		default:
			n.Activity = 1 - e.Prob1
		}
	}
	sc.Counter("sim.engine_sampling").Add(1)
	attrs := map[string]any{
		"engine":           prob.Sampling.String(),
		"circuit":          nw.Name,
		"vectors":          br.Vectors,
		"confidence":       br.Confidence,
		"ci_halfwidth_max": br.MaxActivityCI,
	}
	if res.ExactErr != nil {
		attrs["exact_error"] = res.ExactErr.Error()
	}
	o.Journal.Event("activity.engine", attrs)
	res.Engine = prob.Sampling
	res.Sampled = br
	res.Vectors = br.Vectors
	return res, nil
}
