package mapper

import (
	"math"
	"slices"
	"sort"
	"sync"

	"powermap/internal/genlib"
	"powermap/internal/network"
)

// InputChoice records, for one input of a selected match, which point on
// the input node's curve realizes the match's arrival/cost trade-off.
type InputChoice struct {
	Node  *network.Node
	Pin   int // cell pin index at the parent gate
	Point int // index into the input node's curve
}

// Point is one non-inferior solution on a node's power-delay (or
// area-delay) curve: the arrival time at the node output assuming the
// default load, and the accumulated cost of its mapped transitive fanin
// cone excluding the node's own output charge (Method 1, Section 3.1).
type Point struct {
	Arrival float64
	Cost    float64
	// Cell is the gate matched at the node for this point (nil on source
	// nodes, whose single point represents the driver).
	Cell *genlib.Cell
	// Drive is the drive resistance used to shift this point's arrival
	// when the actual load differs from the default (Subsection 3.2.3).
	Drive float64
	// Inputs identifies the curve points chosen at inputs(n,g).
	Inputs []InputChoice
	// class is the NPN class key of the matched function for cut-backend
	// points ("" otherwise); it surfaces in the map.site journal event.
	class string
}

// Curve is a monotone non-increasing sequence of non-inferior points
// ordered by arrival (Lemma 3.1).
type Curve struct {
	Points []Point
	// matches counts the library matches enumerated at the node before
	// pruning. Written once by the task that builds the curve, read at
	// extract for the map.site journal event.
	matches int
}

// candidate is one trade-off a match offers at a node before pruning.
// It holds no pointers: the cell, class and input nodes come from
// matches[match], and the chosen input curve points are
// choices[choice : choice+len(Inputs)] of the owning candidateSet.
type candidate struct {
	arrival float64
	cost    float64
	drive   float64
	match   int32
	choice  int32
}

// candidateSet collects the candidates of one node, in match order and,
// within a match, in ascending candidate time, leaving out every candidate
// that one already collected weakly dominates (matchCandidates). It also
// carries the scratch of structural matching, of the time merge and of
// prune, so a pooled set serves node after node without allocating.
type candidateSet struct {
	match   matchScratch
	recs    []candidate
	choices []int32
	// front is the staircase of recs: ascending in arrival, strictly
	// descending in cost, and weakly dominating every candidate in recs.
	// extendFront merges into spare and swaps the two.
	front, spare []frontPoint
	ins          []inputCtx
	times        []float64
	order        []int32
	tmp          []int32
	runs         []int
}

// frontPoint is the (arrival, cost) of one candidate on the front.
type frontPoint struct{ arrival, cost float64 }

// candidateSets recycles candidate sets across nodes, workers and Map
// calls.
var candidateSets = sync.Pool{New: func() any { return new(candidateSet) }}

// getCandidateSet returns an empty set from the pool; release returns it.
func getCandidateSet() *candidateSet {
	cs := candidateSets.Get().(*candidateSet)
	cs.recs, cs.choices, cs.front = cs.recs[:0], cs.choices[:0], cs.front[:0]
	return cs
}

// bound returns the earliest front arrival whose cost is at most cmin, or
// +Inf when no front point is that cheap. A candidate costing at least
// cmin that arrives at or after it is weakly dominated.
func (cs *candidateSet) bound(cmin float64) float64 {
	front := cs.front
	k := sort.Search(len(front), func(k int) bool { return front[k].cost <= cmin })
	if k == len(front) {
		return math.Inf(1)
	}
	return front[k].arrival
}

// extendFront merges recs[from:], the candidates one match appended in
// ascending arrival, into the front.
func (cs *candidateSet) extendFront(from int) {
	front, added := cs.front, cs.recs[from:]
	if len(added) == 0 {
		return
	}
	out, best := cs.spare[:0], math.Inf(1)
	for i, j := 0, 0; i < len(front) || j < len(added); {
		var p frontPoint
		if j == len(added) || i < len(front) && front[i].arrival <= added[j].arrival {
			p = front[i]
			i++
		} else {
			p = frontPoint{added[j].arrival, added[j].cost}
			j++
		}
		if p.cost < best {
			best = p.cost
			if k := len(out) - 1; k >= 0 && out[k].arrival == p.arrival {
				out[k].cost = p.cost
			} else {
				out = append(out, p)
			}
		}
	}
	cs.front, cs.spare = out, front
}

// release returns cs to the pool, first dropping its references to input
// curves and subject nodes so a pooled set keeps no curve or network
// alive.
func (cs *candidateSet) release() {
	clear(cs.ins[:cap(cs.ins)])
	clear(cs.match.rows[:cap(cs.match.rows)])
	candidateSets.Put(cs)
}

// curve prunes the candidates and materializes the survivors, in curve
// order, as the node's points. Only survivors get a Point; their input
// choices share one arena, each cut with a full slice expression so no
// Inputs slice can grow into its neighbour's.
func (cs *candidateSet) curve(matches []Match, eps float64) *Curve {
	keep := cs.prune(eps)
	arena := 0
	for _, i := range keep {
		arena += len(matches[cs.recs[i].match].Inputs)
	}
	inputs := make([]InputChoice, arena)
	points := make([]Point, len(keep))
	for j, i := range keep {
		r := &cs.recs[i]
		m := &matches[r.match]
		k := len(m.Inputs)
		in := inputs[:k:k]
		inputs = inputs[k:]
		for pin, node := range m.Inputs {
			in[pin] = InputChoice{Node: node, Pin: pin, Point: int(cs.choices[int(r.choice)+pin])}
		}
		points[j] = Point{Arrival: r.arrival, Cost: r.cost, Cell: m.Cell, Drive: r.drive, Inputs: in, class: m.Class}
	}
	return &Curve{Points: points, matches: len(matches)}
}

// prune returns the indices of the candidates that survive, in curve
// order; the slice is scratch of cs. Candidates are ordered by (arrival,
// cost, index); the index tie-break makes the order total, so any sort
// yields exactly the order a stable sort on (arrival, cost) gives the
// candidates in index order. A candidate is then kept only if no earlier
// one has both arrival ≤ and cost ≤ (with at least one strict). Then
// ε-pruning drops points whose arrival is within eps of the previous kept
// point (keeping the cheaper), and a hard cap bounds the curve size.
func (cs *candidateSet) prune(eps float64) []int32 {
	recs := cs.recs
	if len(recs) == 0 {
		return nil
	}
	order := cs.sort()
	out := order[:0]
	bestCost := math.Inf(1)
	for _, i := range order {
		if c := recs[i].cost; c < bestCost-1e-15 {
			out = append(out, i)
			bestCost = c
		}
	}
	if eps <= 0 || len(out) < 3 {
		return out
	}
	// ε-merge: keep the first (fastest) point, then require arrivals to
	// advance by at least eps; the last (cheapest) point always survives.
	merged := out[:1]
	for i := 1; i < len(out); i++ {
		p := out[i]
		last := &merged[len(merged)-1]
		if recs[p].arrival-recs[*last].arrival < eps && i != len(out)-1 {
			// Same ε-bucket: the later point is cheaper by construction.
			*last = p
			continue
		}
		merged = append(merged, p)
	}
	// Hard cap: keep the fastest and cheapest endpoints plus evenly spaced
	// interior points, bounding downstream merge cost. The step exceeds
	// one, so slot i reads index ≥ i and the selection can run in place.
	if len(merged) > maxCurvePoints {
		step := float64(len(merged)-1) / float64(maxCurvePoints-1)
		prev := -1
		for i := 0; i < maxCurvePoints; i++ {
			idx := int(float64(i)*step + 0.5)
			if idx <= prev {
				idx = prev + 1
			}
			if idx >= len(merged) {
				idx = len(merged) - 1
			}
			merged[i] = merged[idx]
			prev = idx
		}
		merged = merged[:maxCurvePoints]
	}
	return merged
}

// sort returns the candidate indices ordered by (arrival, cost, index).
// Each match appends its candidates in ascending time, and their arrivals
// ascend with it, so the input is a few long ascending runs: a natural
// merge sort finds the runs and merges them pairwise, costing
// O(C log runs) comparisons, and O(C log C) on arbitrary input.
func (cs *candidateSet) sort() []int32 {
	recs := cs.recs
	less := func(a, b int32) bool {
		ra, rb := &recs[a], &recs[b]
		if ra.arrival != rb.arrival {
			return ra.arrival < rb.arrival
		}
		if ra.cost != rb.cost {
			return ra.cost < rb.cost
		}
		return a < b
	}
	src := slices.Grow(cs.order[:0], len(recs))[:len(recs)]
	for i := range src {
		src[i] = int32(i)
	}
	// runs holds the run boundaries, from 0 to len(recs).
	runs := append(cs.runs[:0], 0)
	for i := 1; i < len(src); i++ {
		if less(src[i], src[i-1]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(src))
	dst := slices.Grow(cs.tmp[:0], len(src))[:len(src)]
	cs.order, cs.tmp, cs.runs = src, dst, runs
	for len(runs) > 2 {
		// Merge runs pairwise into dst; boundaries are rewritten behind
		// the ones still to be read.
		w := 1
		for r := 0; r+1 < len(runs); r += 2 {
			lo, mid, hi := runs[r], runs[r+1], runs[r+1]
			if r+2 < len(runs) {
				hi = runs[r+2]
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(src[j], src[i]) {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
			runs[w] = hi
			w++
		}
		runs = runs[:w]
		src, dst = dst, src
	}
	return src
}

// maxCurvePoints bounds a curve after pruning; the first and last points
// (fastest and cheapest solutions) are always retained.
const maxCurvePoints = 48
