package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"powermap/internal/exec"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/sop"
)

// This file implements the bit-parallel sampling engine: 64 sample lanes
// per uint64 word, evaluated over a precompiled per-node plan.
//
// Lane layout is SERIAL: a stream of draws d = 0, 1, 2, ... maps draw d to
// bit (d mod 64) of word number (d div 64). Draw 0 is the uncounted
// predecessor vector and draws 1..vectors are the counted vectors, exactly
// mirroring a scalar simulation of the same stream. Because a word then
// holds 64 *consecutive* draws of one stream, toggles are a shift-XOR
// away:
//
//	toggle bit b of word w  =  w[b] XOR w[b-1]   (carrying the top bit of
//	                                              the previous word into b=0)
//
// and the engine's one/toggle counts are bit-identical to a scalar engine
// fed the same draw sequence — the property the cross-engine tests pin
// down against the scalar oracle kept in the package tests.

// WordLanes is the number of sample lanes packed per machine word.
const WordLanes = 64

// WordSource draws primary-input sample words: Draw fills dst[i] with the
// next `lanes` serial draws of PI i (in nw.PIs order), draw j of the call
// in bit j. lanes is always in [1, WordLanes]; bits at and above `lanes`
// are ignored by the engine. Implementations must consume underlying
// randomness for exactly `lanes` draws so that packed scalar sources stay
// transcript-aligned with their scalar counterparts.
type WordSource interface {
	Draw(dst []uint64, lanes int)
}

// independentWords is the fast path for temporally and spatially
// independent inputs: one RNG draw per PI per word when p = 0.5, per-lane
// Bernoulli draws otherwise.
type independentWords struct {
	r     *rand.Rand
	probs []float64
}

// IndependentWords returns a WordSource with independent inputs,
// P(pi=1) from piProb (default 0.5), drawn from a math/rand stream with
// the given seed.
func IndependentWords(nw *network.Network, piProb map[string]float64, seed int64) WordSource {
	s := &independentWords{r: rand.New(rand.NewSource(seed)), probs: make([]float64, len(nw.PIs))}
	for i, pi := range nw.PIs {
		p, ok := piProb[pi.Name]
		if !ok {
			p = 0.5
		}
		s.probs[i] = p
	}
	return s
}

func (s *independentWords) Draw(dst []uint64, lanes int) {
	for i, p := range s.probs {
		if p == 0.5 {
			// All 64 lanes in one draw; surplus bits beyond `lanes` are
			// masked by the engine and cost nothing.
			dst[i] = s.r.Uint64()
			continue
		}
		var w uint64
		for b := 0; b < lanes; b++ {
			if s.r.Float64() < p {
				w |= 1 << uint(b)
			}
		}
		dst[i] = w
	}
}

// packedVectors adapts a scalar VectorSource into a WordSource by drawing
// one scalar vector per lane. The adapter consumes exactly `lanes` scalar
// draws per call, so a packed source replays the same transcript as a
// scalar engine reading the same VectorSource — the bridge behind the
// correlated (lag-one, pair-correlated) sources and the cross-engine
// bit-identity tests.
type packedVectors struct {
	src   VectorSource
	pis   []*network.Node
	named map[string]bool
}

// PackVectors adapts a scalar VectorSource to the word-level engine.
func PackVectors(nw *network.Network, src VectorSource) WordSource {
	return &packedVectors{src: src, pis: nw.PIs, named: make(map[string]bool, len(nw.PIs))}
}

func (s *packedVectors) Draw(dst []uint64, lanes int) {
	for i := range dst {
		dst[i] = 0
	}
	for b := 0; b < lanes; b++ {
		s.src(s.named)
		for i, pi := range s.pis {
			if s.named[pi.Name] {
				dst[i] |= 1 << uint(b)
			}
		}
	}
}

// bitLit is one literal of a compiled cube: the fanin's slot in the
// program's word array, complemented when neg is set.
type bitLit struct {
	slot int32
	neg  bool
}

type bitKind uint8

const (
	bitInternal bitKind = iota
	bitPI
	bitConst0
	bitConst1
)

// bitNode is one node's precompiled evaluation plan.
type bitNode struct {
	kind  bitKind
	pi    int32      // PI word index for bitPI
	cubes [][]bitLit // SOP plan for bitInternal: OR of ANDs of literals
}

// Program is a network levelized and compiled for word-level evaluation:
// one slot per reachable node in topological order, each internal node's
// sop.Cover lowered to word-wide AND/OR/NOT over fanin slots.
type Program struct {
	// Order is the topological order the slots follow (fanins first).
	Order []*network.Node
	nodes []bitNode
	npis  int
}

// CompileProgram levelizes nw once and compiles every reachable node's
// cover into a word-level evaluation plan. The program only reads the
// network, so one compile may serve many concurrent chunk simulations.
func CompileProgram(nw *network.Network) *Program {
	order := nw.TopoOrder()
	slot := make(map[*network.Node]int32, len(order))
	piIdx := make(map[*network.Node]int32, len(nw.PIs))
	for i, pi := range nw.PIs {
		piIdx[pi] = int32(i)
	}
	p := &Program{Order: order, nodes: make([]bitNode, len(order)), npis: len(nw.PIs)}
	for i, n := range order {
		slot[n] = int32(i)
		switch {
		case n.Kind == network.PI:
			p.nodes[i] = bitNode{kind: bitPI, pi: piIdx[n]}
		case n.Func.IsZero():
			p.nodes[i] = bitNode{kind: bitConst0}
		case n.Func.IsOne():
			p.nodes[i] = bitNode{kind: bitConst1}
		default:
			cubes := make([][]bitLit, 0, len(n.Func.Cubes))
			for _, c := range n.Func.Cubes {
				lits := make([]bitLit, 0, len(c))
				for v, l := range c {
					if l == sop.DC {
						continue
					}
					lits = append(lits, bitLit{slot: slot[n.Fanin[v]], neg: l == sop.Neg})
				}
				cubes = append(cubes, lits)
			}
			p.nodes[i] = bitNode{kind: bitInternal, cubes: cubes}
		}
	}
	return p
}

// eval computes one word per node from one word per PI.
func (p *Program) eval(piWords, words []uint64) {
	for i := range p.nodes {
		bn := &p.nodes[i]
		switch bn.kind {
		case bitPI:
			words[i] = piWords[bn.pi]
		case bitConst0:
			words[i] = 0
		case bitConst1:
			words[i] = ^uint64(0)
		default:
			var acc uint64
			for _, cube := range bn.cubes {
				w := ^uint64(0) // empty cube (all DC) is the tautology
				for _, l := range cube {
					fw := words[l.slot]
					if l.neg {
						fw = ^fw
					}
					if w &= fw; w == 0 {
						break
					}
				}
				if acc |= w; acc == ^uint64(0) {
					break
				}
			}
			words[i] = acc
		}
	}
}

// simWords simulates one chunk of `vectors` counted draws (plus the
// uncounted predecessor draw 0) and accumulates, per node slot:
//
//	ones[i]    — count of draws d in [1, vectors] with value 1
//	toggles[i] — count of d in [1, vectors] with value(d) != value(d-1)
//	pairs[i]   — count of d in [2, vectors] where draws d and d-1 both
//	             toggled (the lag-one toggle co-occurrence behind the
//	             activity CI's autocovariance correction)
//
// Returns the number of node-words evaluated.
func (p *Program) simWords(src WordSource, vectors int, ones, toggles, pairs []int64) int64 {
	draws := vectors + 1
	piWords := make([]uint64, p.npis)
	words := make([]uint64, len(p.nodes))
	prevBit := make([]uint64, len(p.nodes))    // last valid lane of the previous word (0/1)
	prevToggle := make([]uint64, len(p.nodes)) // last valid lane of the previous toggle word
	evaluated := int64(0)
	first := true
	for done := 0; done < draws; done += WordLanes {
		lanes := draws - done
		if lanes > WordLanes {
			lanes = WordLanes
		}
		src.Draw(piWords, lanes)
		p.eval(piWords, words)
		evaluated += int64(len(p.nodes))
		mask := ^uint64(0)
		if lanes < WordLanes {
			mask = 1<<uint(lanes) - 1
		}
		countMask := mask
		if first {
			countMask &^= 1 // lane 0 of the first word is the uncounted predecessor
		}
		for i, w := range words {
			ones[i] += int64(bits.OnesCount64(w & countMask))
			tog := (w ^ ((w << 1) | prevBit[i])) & countMask
			toggles[i] += int64(bits.OnesCount64(tog))
			// Pair bit b = toggle(b) AND toggle(b-1); the first counted
			// toggle's predecessor bit is already masked out of tog.
			pairs[i] += int64(bits.OnesCount64(tog & ((tog << 1) | prevToggle[i])))
			prevBit[i] = (w >> uint(lanes-1)) & 1
			prevToggle[i] = (tog >> uint(lanes-1)) & 1
		}
		first = false
	}
	return evaluated
}

// DefaultConfidence is the confidence level of the reported intervals when
// BitwiseOptions.Confidence is zero.
const DefaultConfidence = 0.95

// DefaultMaxVectors caps sequential-batch (TargetCI) sampling.
const DefaultMaxVectors = 1 << 20

// ciBatchChunks is the number of chunks drawn per sequential batch in
// TargetCI mode. The stop rule is evaluated only at batch boundaries, so
// the sampled stream — and therefore the estimate — depends only on
// (seed, chunk size, target), never on the worker count.
const ciBatchChunks = 16

// zScore converts a two-sided confidence level to its standard-normal
// quantile, e.g. 0.95 → 1.9600.
func zScore(confidence float64) float64 {
	return math.Sqrt2 * math.Erfinv(confidence)
}

// BitwiseOptions configures ActivitiesBitwise.
type BitwiseOptions struct {
	// Vectors is the fixed sample budget. Ignored when TargetCI > 0.
	Vectors int
	// Seed is the base Monte-Carlo seed; chunk c draws from
	// mixSeed(Seed, c).
	Seed int64
	// Workers bounds the chunk pool (<= 0: one per CPU). The chunk
	// partition depends only on Vectors, so counts are bit-identical for
	// every worker count.
	Workers int
	// Confidence is the two-sided level of the reported interval
	// half-widths (0 selects DefaultConfidence).
	Confidence float64
	// TargetCI, when positive, switches to sequential batching: chunks are
	// drawn in fixed batches until every node's activity CI half-width is
	// at or below this target, or DefaultMaxVectors is reached.
	TargetCI float64
	// Source, when non-nil, supplies the word stream of the chunk with the
	// given mixed seed, replacing the default IndependentWords stream.
	// Each call must return a fresh, independently seeded source.
	Source func(chunkSeed int64) WordSource
	// Obs receives sim.lanes_simulated / sim.words_evaluated counters and
	// the sim.ci_halfwidth_max gauge; nil disables instrumentation.
	Obs *obs.Scope
}

// BitwiseResult is the outcome of one bit-parallel sampling run.
type BitwiseResult struct {
	// Estimates holds per-node estimates with exact integer counts and
	// confidence-interval half-widths at the configured level.
	Estimates map[*network.Node]Estimate
	// Vectors is the number of counted sample vectors actually drawn
	// (fixed mode: the requested budget; TargetCI mode: a multiple of the
	// batch size).
	Vectors int
	// Confidence echoes the interval level of the estimates.
	Confidence float64
	// MaxActivityCI is the largest activity CI half-width over all nodes —
	// the quantity the TargetCI stop rule drives below the target.
	MaxActivityCI float64
	// WordsEvaluated counts node-word evaluations (the engine's work unit).
	WordsEvaluated int64
}

// bitCounts is one chunk's contribution.
type bitCounts struct {
	ones, toggles, pairs []int64
	words                int64
}

// ActivitiesBitwise estimates signal probabilities and toggle activities
// with the bit-parallel engine: the vector stream is split into fixed-size
// chunks, each simulated 64 lanes at a time from its own mixSeed-derived
// stream, and the integer counts are summed in chunk order. Counts are
// bit-identical for every worker count.
func ActivitiesBitwise(ctx context.Context, nw *network.Network, piProb map[string]float64, o BitwiseOptions) (*BitwiseResult, error) {
	if o.TargetCI <= 0 && o.Vectors <= 0 {
		return nil, fmt.Errorf("sim: need a positive vector count or CI target, got %d vectors", o.Vectors)
	}
	for name, p := range piProb {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("sim: P(%s=1) = %v out of [0,1]", name, p)
		}
	}
	conf := o.Confidence
	if conf == 0 {
		conf = DefaultConfidence
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("sim: confidence level %v out of (0,1)", conf)
	}
	source := o.Source
	if source == nil {
		source = func(chunkSeed int64) WordSource { return IndependentWords(nw, piProb, chunkSeed) }
	}
	prog := CompileProgram(nw)
	nslots := len(prog.Order)
	z := zScore(conf)
	workers := exec.Workers(o.Workers)

	total := bitCounts{ones: make([]int64, nslots), toggles: make([]int64, nslots), pairs: make([]int64, nslots)}
	totVectors, totChunks := 0, 0
	// runChunks simulates chunks [firstChunk, firstChunk+numChunks) across
	// the pool and merges their counts (order-independent integer sums).
	runChunks := func(firstChunk, numChunks int, chunkVectors func(c int) int) error {
		parts, err := exec.Map(exec.WithLabel(ctx, "sim.bitwise"), workers, numChunks, func(ctx context.Context, i int) (bitCounts, error) {
			if err := ctx.Err(); err != nil {
				return bitCounts{}, fmt.Errorf("sim: %w", err)
			}
			c := firstChunk + i
			cc := bitCounts{ones: make([]int64, nslots), toggles: make([]int64, nslots), pairs: make([]int64, nslots)}
			cc.words = prog.simWords(source(mixSeed(o.Seed, c)), chunkVectors(c), cc.ones, cc.toggles, cc.pairs)
			return cc, nil
		})
		if err != nil {
			return err
		}
		for _, cc := range parts {
			for i := 0; i < nslots; i++ {
				total.ones[i] += cc.ones[i]
				total.toggles[i] += cc.toggles[i]
				total.pairs[i] += cc.pairs[i]
			}
			total.words += cc.words
		}
		return nil
	}
	// maxActivityCI evaluates the stop-rule statistic over all node slots.
	maxActivityCI := func() float64 {
		worst := 0.0
		for i := 0; i < nslots; i++ {
			if ci := activityCI(total.toggles[i], total.pairs[i], totVectors, totChunks, z); ci > worst {
				worst = ci
			}
		}
		return worst
	}

	if o.TargetCI > 0 {
		for {
			first := totChunks
			if err := runChunks(first, ciBatchChunks, func(int) int { return mcChunk }); err != nil {
				return nil, err
			}
			totChunks += ciBatchChunks
			totVectors += ciBatchChunks * mcChunk
			if maxActivityCI() <= o.TargetCI || totVectors >= DefaultMaxVectors {
				break
			}
		}
	} else {
		chunks := (o.Vectors + mcChunk - 1) / mcChunk
		if err := runChunks(0, chunks, func(c int) int {
			if c == chunks-1 {
				return o.Vectors - c*mcChunk
			}
			return mcChunk
		}); err != nil {
			return nil, err
		}
		totChunks = chunks
		totVectors = o.Vectors
	}

	res := &BitwiseResult{
		Estimates:      make(map[*network.Node]Estimate, nslots),
		Vectors:        totVectors,
		Confidence:     conf,
		WordsEvaluated: total.words,
	}
	for i, n := range prog.Order {
		e := Estimate{
			Prob1:    float64(total.ones[i]) / float64(totVectors),
			Activity: float64(total.toggles[i]) / float64(totVectors),
			Ones:     total.ones[i],
			Toggles:  total.toggles[i],
			Vectors:  totVectors,
		}
		e.Prob1CI = z * math.Sqrt(e.Prob1*(1-e.Prob1)/float64(totVectors))
		e.ActivityCI = activityCI(total.toggles[i], total.pairs[i], totVectors, totChunks, z)
		if e.ActivityCI > res.MaxActivityCI {
			res.MaxActivityCI = e.ActivityCI
		}
		res.Estimates[n] = e
	}
	sc := o.Obs
	sc.Counter("sim.lanes_simulated").Add(int64(totVectors))
	sc.Counter("sim.words_evaluated").Add(total.words)
	sc.Gauge("sim.ci_halfwidth_max").SetMax(res.MaxActivityCI)
	return res, nil
}

// activityCI is the normal-approximation half-width of the mean toggle
// rate. Consecutive toggle indicators share a vector (t_d and t_{d+1} both
// involve draw d), so the sequence is 1-dependent and the naive Bernoulli
// variance undercovers; the estimator corrects with the empirical lag-one
// autocovariance from the toggle-pair counts:
//
//	Var(Ê) ≈ ( â(1-â) + 2·(p̂_tt - â²) ) / n
//
// where â = toggles/n and p̂_tt = pairs/(n - chunks) (each chunk of length
// ℓ contributes ℓ-1 adjacent toggle pairs).
func activityCI(toggles, pairs int64, vectors, chunks int, z float64) float64 {
	if vectors <= 0 {
		return 0
	}
	n := float64(vectors)
	a := float64(toggles) / n
	v := a * (1 - a)
	if den := vectors - chunks; den > 0 {
		cov := float64(pairs)/float64(den) - a*a
		v += 2 * cov
	}
	if v < 0 {
		v = 0
	}
	return z * math.Sqrt(v/n)
}

// ActivitiesBitwiseFrom estimates activities from one uninterrupted stream
// of a single WordSource, counted with the serial semantics above (draw 0
// is the uncounted predecessor). Feeding it PackVectors(nw, src) yields
// one/toggle counts bit-identical to a scalar simulation of src's
// transcript; correlated-input experiments measure through it.
func ActivitiesBitwiseFrom(nw *network.Network, src WordSource, vectors int) (map[*network.Node]Estimate, error) {
	if vectors <= 0 {
		return nil, fmt.Errorf("sim: need a positive vector count, got %d", vectors)
	}
	prog := CompileProgram(nw)
	nslots := len(prog.Order)
	ones := make([]int64, nslots)
	toggles := make([]int64, nslots)
	pairs := make([]int64, nslots)
	prog.simWords(src, vectors, ones, toggles, pairs)
	z := zScore(DefaultConfidence)
	out := make(map[*network.Node]Estimate, nslots)
	for i, n := range prog.Order {
		e := Estimate{
			Prob1:    float64(ones[i]) / float64(vectors),
			Activity: float64(toggles[i]) / float64(vectors),
			Ones:     ones[i],
			Toggles:  toggles[i],
			Vectors:  vectors,
		}
		e.Prob1CI = z * math.Sqrt(e.Prob1*(1-e.Prob1)/float64(vectors))
		e.ActivityCI = activityCI(toggles[i], pairs[i], vectors, 1, z)
		out[n] = e
	}
	return out, nil
}
