package decomp

import (
	"context"
	"fmt"
	"math"

	"powermap/internal/exec"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/prob"
)

// boundedPass implements the Section 2.3 driver loop: after the
// unrestricted MINPOWER pass, unit-delay arrival and required times are
// computed over the *planned* (not yet materialized) decomposition, and the
// node with the most negative slack is re-decomposed under a height bound
// until the delay requirement is met or no node can be tightened further.
//
// The paper distributes path slack to nodes proportionally to their
// depth_surplus (the height excess of the power-efficient tree over a
// balanced tree). Here the same quantity appears per node: a node of
// structure height h with slack s < 0 gets the bound
// L = max(minHeight, h + s), which assigns the node exactly its own share
// of the violation it causes; iterating node-by-node from the most negative
// slack reproduces the paper's greedy order (ties broken toward nodes
// shared by more paths, approximated by fanout count). The required times
// are per output, by name; the pass stops after 2×#plans iterations.
func boundedPass(ctx context.Context, cp *network.Network, plans []*plan, poRequired map[string]float64, sc *obs.Scope) (int, error) {
	planOf := make(map[*network.Node]*plan, len(plans))
	for _, p := range plans {
		planOf[p.n] = p
	}
	iterations := sc.Counter("decomp.slack_iterations")
	rebuilt := sc.Counter("decomp.redecompositions")
	stuck := sc.Counter("decomp.redecomp_stuck")
	redecomps := 0
	for iter := 0; iter < 2*len(plans); iter++ {
		if err := ctx.Err(); err != nil {
			return redecomps, fmt.Errorf("decomp: bounded pass: %w", err)
		}
		iterations.Inc()
		arrival, required := virtualTiming(cp, planOf, poRequired)
		// Select the most negative slack plan that can still be tightened.
		var worst *plan
		worstSlack := -1e-9
		for _, p := range plans {
			if p.stuck || p.structureHeight() <= p.minHeight {
				continue
			}
			s := required[p.n] - arrival[p.n]
			if s < worstSlack ||
				(worst != nil && s == worstSlack && len(p.n.Fanout) > len(worst.n.Fanout)) {
				worst, worstSlack = p, s
			}
		}
		if worst == nil {
			break
		}
		h := worst.structureHeight()
		limit := h + int(math.Floor(worstSlack))
		if limit < worst.minHeight {
			limit = worst.minHeight
		}
		if limit >= h {
			limit = h - 1
		}
		ok, err := worst.rebuild(limit)
		if err != nil {
			return redecomps, err
		}
		if !ok || worst.structureHeight() >= h {
			worst.stuck = true
			stuck.Inc()
			continue
		}
		redecomps++
		worst.rebuilt = true
		rebuilt.Inc()
	}
	return redecomps, nil
}

// conventionalArrivals plans a balanced decomposition of every node and
// returns the unit-delay arrival time each primary output would reach with
// it, used as the required times of the bounded strategy. Like the
// main plan phase, the per-node balanced plans are independent and fan out
// across the worker pool.
func conventionalArrivals(ctx context.Context, cp *network.Network, model *prob.Model, opt Options, workers int) (map[string]float64, error) {
	balOpt := opt
	balOpt.Strategy = Conventional
	var nodes []*network.Node
	for _, n := range cp.TopoOrder() {
		if n.Kind == network.Internal {
			nodes = append(nodes, n)
		}
	}
	plans, err := exec.Map(exec.WithLabel(ctx, "decomp.balanced"), workers, len(nodes), func(ctx context.Context, i int) (*plan, error) {
		return makePlan(cp, model, nodes[i], balOpt)
	})
	if err != nil {
		return nil, err
	}
	planOf := make(map[*network.Node]*plan, len(plans))
	for i, p := range plans {
		planOf[nodes[i]] = p
	}
	arr, _ := virtualTiming(cp, planOf, nil)
	req := make(map[string]float64, len(cp.Outputs))
	for _, o := range cp.Outputs {
		req[o.Name] = arr[o.Driver]
	}
	return req, nil
}

// virtualTiming computes unit-delay arrival and required times over the
// planned decomposition without materializing it: each plan contributes its
// per-leaf depths as the delay from a fanin to the node output. Every
// primary input arrives at 0; an output missing from poRequired (nil
// included) is required at the latest output arrival.
func virtualTiming(cp *network.Network, planOf map[*network.Node]*plan, poRequired map[string]float64) (arrival, required map[*network.Node]float64) {
	order := cp.TopoOrder()
	arrival = make(map[*network.Node]float64, len(order))
	required = make(map[*network.Node]float64, len(order))
	for _, n := range order {
		if n.IsSource() {
			arrival[n] = 0
			continue
		}
		p := planOf[n]
		if p == nil {
			// Not planned (e.g. constants rejected earlier); fall back to
			// unit delay over direct fanins.
			worstIn := 0.0
			for _, f := range n.Fanin {
				if arrival[f] > worstIn {
					worstIn = arrival[f]
				}
			}
			arrival[n] = worstIn + 1
			continue
		}
		a := 0.0
		for leaf, depth := range p.leafArrivalDepths() {
			if v := arrival[leaf] + float64(depth); v > a {
				a = v
			}
		}
		arrival[n] = a
	}
	maxOut := 0.0
	for _, o := range cp.Outputs {
		if arrival[o.Driver] > maxOut {
			maxOut = arrival[o.Driver]
		}
	}
	for _, n := range order {
		required[n] = math.Inf(1)
	}
	for _, o := range cp.Outputs {
		req, ok := poRequired[o.Name]
		if !ok {
			req = maxOut
		}
		if req < required[o.Driver] {
			required[o.Driver] = req
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.IsSource() {
			continue
		}
		p := planOf[n]
		if p == nil {
			for _, f := range n.Fanin {
				if r := required[n] - 1; r < required[f] {
					required[f] = r
				}
			}
			continue
		}
		for leaf, depth := range p.leafArrivalDepths() {
			if r := required[n] - float64(depth); r < required[leaf] {
				required[leaf] = r
			}
		}
	}
	for _, n := range order {
		if math.IsInf(required[n], 1) {
			required[n] = maxOut
		}
	}
	return arrival, required
}
