package cli

import (
	crand "crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"powermap/internal/bdd"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/prob"
	"powermap/internal/sim"
)

// randomSeed draws a positive Monte-Carlo seed from the OS entropy source
// (falling back to the clock), so unseeded estimates explore fresh vectors
// while remaining reproducible via the echoed value.
func randomSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	s := int64(binary.LittleEndian.Uint64(b[:]) >> 1) // non-negative
	if s == 0 {
		s = 1
	}
	return s
}

// Powerest runs the powerest command: exact zero-delay probability and
// activity estimation of a BLIF network, with optional Monte-Carlo
// cross-checking.
func Powerest(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("powerest", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		blifPath = fs.String("blif", "", "input BLIF netlist")
		circuit  = fs.String("circuit", "", "built-in benchmark name (see pmap -list)")
		style    = fs.String("style", "static", "design style: static, domino-p, domino-n")
		piProb   = fs.Float64("prob", 0.5, "uniform P(pi=1) for all primary inputs")
		perNode  = fs.Bool("nodes", false, "print per-node probabilities and activities")
		top      = fs.Int("top", 10, "print the N most active nodes")
		mc       = fs.Int("mc", 0, "cross-check against N Monte-Carlo vectors")
		seed     = fs.Int64("seed", 0, "Monte-Carlo seed for -mc and the sampling engine (0 = random; the chosen seed is echoed)")
		jpath    = fs.String("journal", "", "write a decision-provenance journal (JSONL) to this file; query it with pexplain")
		workers  = fs.Int("workers", 1, "Monte-Carlo worker pool size (0 = all CPUs); estimates are identical for every value")
		timeout  = fs.Duration("timeout", 0, "abort the estimation after this duration (0 = none)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	bddf := addBDDFlags(fs)
	actf := addActivityFlags(fs)
	tel := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := actf.policy()
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(errOut, "powerest: profile: %v\n", perr)
		}
	}()
	nw, err := LoadNetwork(*blifPath, *circuit)
	if err != nil {
		return err
	}
	st, err := huffman.ParseStyle(*style)
	if err != nil {
		return err
	}
	probs := map[string]float64{}
	for _, name := range nw.PINames() {
		probs[name] = *piProb
	}
	sc := tel.scope(errOut)
	// The Monte-Carlo seed defaults to a random draw so repeated estimates
	// explore the vector space; pass -seed to reproduce a run. Either way
	// it is echoed and journaled, so every output is reproducible.
	if *seed == 0 {
		*seed = randomSeed()
	}
	var jr *journal.Journal
	if *jpath != "" {
		jr, err = journal.Create(*jpath, journal.Header{
			RunID:   tel.resolveRunID(),
			Circuit: nw.Name,
			Style:   st.String(),
			Stage:   "powerest",
			Workers: *workers,
		})
		if err != nil {
			return err
		}
		jr.SetObs(sc)
		defer func() {
			if cerr := jr.Close(); cerr != nil {
				fmt.Fprintf(errOut, "powerest: journal: %v\n", cerr)
			}
		}()
	}
	if *mc > 0 || policy.Engine != prob.Exact || *actf.trans >= 0 {
		fmt.Fprintf(errOut, "powerest: Monte-Carlo seed %d\n", *seed)
		jr.Event("powerest.seed", map[string]any{"seed": *seed})
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	ctx = obs.WithScope(ctx, sc)
	// Annotate runs the configured engine: exact BDDs, the bit-parallel
	// sampling engine, or auto — which falls back to sampling when exact
	// BDDs exceed the node limit, as promised by that error's diagnostic.
	ares, err := sim.Annotate(ctx, nw, probs, sim.AnnotateOptions{
		Policy:   policy,
		Style:    st,
		BDD:      bddf.config(),
		Sampling: actf.sampling(*seed, *workers),
		Trans:    actf.transMap(nw.PINames()),
		Obs:      sc,
		Journal:  jr,
	})
	if err != nil {
		// Estimation failures (typically an exact-BDD node-limit blowup)
		// leave a flight record beside the journal, like core.Synthesize.
		sc.Flight().CaptureFailure("powerest.annotate", err,
			"circuit", nw.Name, "node_limit", bdd.IsNodeLimit(err))
		if bdd.IsNodeLimit(err) {
			// Only powerest can trade exact activities for sampled ones.
			err = fmt.Errorf("%w (or sample activities with -activity auto)", err)
		}
		return timeoutError(*timeout, err)
	}
	approximated := ares.Engine == prob.Sampling
	if ares.ExactErr != nil {
		fmt.Fprintf(errOut, "powerest: %v\n", ares.ExactErr)
		fmt.Fprintf(errOut, "powerest: falling back to approximate activities (%d Monte-Carlo vectors)\n", ares.Vectors)
		jr.Event("powerest.approx-fallback", map[string]any{"vectors": ares.Vectors, "seed": *seed})
	}

	var internals []*network.Node
	total := 0.0
	for _, n := range nw.TopoOrder() {
		if n.Kind == network.Internal {
			internals = append(internals, n)
			total += n.Activity
		}
	}
	jr.Event("powerest.activities", map[string]any{
		"total_activity": total, "approximate": approximated,
	})
	s := nw.Stats()
	fmt.Fprintf(out, "circuit %s: %d PI, %d PO, %d nodes (%s style)\n", nw.Name, s.PIs, s.POs, s.Nodes, st)
	if approximated {
		reason := "sampling engine selected"
		if ares.ExactErr != nil {
			reason = "exact BDDs exceeded the node limit"
		}
		fmt.Fprintf(out, "activities are approximate (%d Monte-Carlo vectors; %s)\n", ares.Vectors, reason)
		fmt.Fprintf(out, "max activity CI half-width %.4f at %.0f%% confidence\n",
			ares.Sampled.MaxActivityCI, 100*ares.Sampled.Confidence)
	}
	fmt.Fprintf(out, "total internal switching activity: %.4f\n", total)
	if len(internals) > 0 {
		fmt.Fprintf(out, "mean activity per node: %.4f\n", total/float64(len(internals)))
	}

	if *mc > 0 {
		// One chunked stream per seed: the estimate is identical for every
		// -workers value.
		span := sc.StartCtx(ctx, "powerest.montecarlo")
		span.SetAttr("vectors", *mc).SetAttr("workers", *workers).SetAttr("seed", *seed)
		mcRes, err := sim.ActivitiesBitwise(ctx, nw, probs, sim.BitwiseOptions{Vectors: *mc, Seed: *seed, Workers: *workers})
		span.End()
		if err != nil {
			return timeoutError(*timeout, err)
		}
		est := mcRes.Estimates
		worst, mcTotal := 0.0, 0.0
		for _, n := range internals {
			mcTotal += est[n].Activity
			if st == huffman.Static {
				if d := math.Abs(est[n].Activity - n.Activity); d > worst {
					worst = d
				}
			}
		}
		jr.Event("powerest.montecarlo", map[string]any{
			"vectors": *mc, "seed": *seed, "total_activity": mcTotal,
		})
		fmt.Fprintf(out, "Monte-Carlo (%d vectors, seed %d): total activity %.4f", *mc, *seed, mcTotal)
		if st == huffman.Static {
			fmt.Fprintf(out, ", worst per-node |MC - BDD| = %.4f", worst)
		}
		fmt.Fprintln(out)
	}

	switch {
	case *perNode:
		if approximated {
			fmt.Fprintln(out, "\nnode          P(1)     E        ±E")
			for _, n := range internals {
				fmt.Fprintf(out, "%-12s %.4f  %.4f  %.4f\n",
					n.Name, n.Prob1, n.Activity, ares.Sampled.Estimates[n].ActivityCI)
			}
			break
		}
		fmt.Fprintln(out, "\nnode          P(1)     E")
		for _, n := range internals {
			fmt.Fprintf(out, "%-12s %.4f  %.4f\n", n.Name, n.Prob1, n.Activity)
		}
	case *top > 0:
		sorted := append([]*network.Node(nil), internals...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Activity > sorted[j].Activity })
		if len(sorted) > *top {
			sorted = sorted[:*top]
		}
		fmt.Fprintf(out, "\ntop %d most active nodes:\n", len(sorted))
		for _, n := range sorted {
			fmt.Fprintf(out, "  %-12s P(1)=%.4f  E=%.4f\n", n.Name, n.Prob1, n.Activity)
		}
	}
	return tel.finish(out, errOut)
}
