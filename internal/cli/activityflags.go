package cli

import (
	"flag"

	"powermap/internal/prob"
	"powermap/internal/sim"
)

// activityFlags is powerest's activity-engine flag set: which engine
// computes switching activities (exact BDDs, the bit-parallel sampling
// engine, or the auto policy) and the sampling engine's budget and
// confidence-interval tuning.
type activityFlags struct {
	engine        *string
	vectors       *int
	targetCI      *float64
	confidence    *float64
	autoThreshold *int
	trans         *float64
}

// addActivityFlags registers -activity, -vectors, -auto-threshold, -ci,
// -confidence and -trans.
func addActivityFlags(fs *flag.FlagSet) *activityFlags {
	return &activityFlags{
		engine:        fs.String("activity", "exact", "activity engine: exact (global BDDs), sample (bit-parallel Monte-Carlo), auto (exact below -auto-threshold nodes or on a node-limit failure, sampling otherwise)"),
		vectors:       fs.Int("vectors", sim.DefaultSampleVectors, "sampling budget in vectors for -activity sample/auto"),
		autoThreshold: fs.Int("auto-threshold", prob.DefaultAutoThreshold, "node count above which -activity auto samples instead of building exact BDDs"),
		targetCI:      fs.Float64("ci", 0, "sample sequentially until every node's activity CI half-width is at most this target (0 = fixed -vectors budget)"),
		confidence:    fs.Float64("confidence", sim.DefaultConfidence, "confidence level of the sampling engine's reported intervals"),
		trans:         fs.Float64("trans", -1, "uniform per-PI lag-one toggle probability (forces sampling; negative = temporally independent inputs)"),
	}
}

// policy resolves the -activity/-auto-threshold pair.
func (a *activityFlags) policy() (prob.Policy, error) {
	engine, err := prob.ParseEngine(*a.engine)
	return prob.Policy{Engine: engine, AutoThreshold: *a.autoThreshold}, err
}

// sampling resolves the sampling-engine options for the given seed and
// worker count.
func (a *activityFlags) sampling(seed int64, workers int) sim.BitwiseOptions {
	return sim.BitwiseOptions{
		Vectors:    *a.vectors,
		Seed:       seed,
		Workers:    workers,
		Confidence: *a.confidence,
		TargetCI:   *a.targetCI,
	}
}

// transMap resolves -trans into the per-PI toggle-probability map consumed
// by sim.AnnotateOptions.Trans (nil when unset).
func (a *activityFlags) transMap(piNames []string) map[string]float64 {
	if *a.trans < 0 {
		return nil
	}
	m := make(map[string]float64, len(piNames))
	for _, name := range piNames {
		m[name] = *a.trans
	}
	return m
}
