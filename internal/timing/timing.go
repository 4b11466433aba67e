// Package timing implements the unit-delay timing analysis used by the
// technology-decomposition driver (paper Section 2.3): arrival times
// propagate forward from primary inputs, required times propagate backward
// from primary outputs, and slack is their difference. The paper argues the
// unit-delay model is the sensible choice before mapping, since the mapped
// netlist's structure will differ substantially from the NAND-decomposed
// network; the pin-dependent library delay model (Equation 14) is applied
// after mapping by the mapper package.
package timing

import (
	"context"
	"math"

	"powermap/internal/network"
	"powermap/internal/obs"
)

// UnitOptions configures AnnotateUnitContext.
type UnitOptions struct {
	// Obs receives timing metrics (annotate runs, nodes visited, network
	// depth, worst slack). Nil disables instrumentation.
	Obs *obs.Scope
	// PIArrival gives arrival times at primary inputs by name; missing
	// inputs default to 0.
	PIArrival map[string]float64
	// PORequired gives required times at primary outputs by name. When nil
	// or missing an output, the output's required time defaults to
	// DefaultRequired; when DefaultRequired is 0 too, the latest arrival
	// over all outputs is used (zero-slack normalization).
	PORequired map[string]float64
	// DefaultRequired is the required time applied to outputs not listed in
	// PORequired. Zero means "latest output arrival".
	DefaultRequired float64
}

// AnnotateUnitContext computes unit-delay Arrival and Required annotations
// for every node reachable from the outputs and returns the maximum arrival
// time over the primary outputs (the network delay). The timing span files
// under the context's telemetry track and labels (the computation itself is
// context-free and never blocks).
func AnnotateUnitContext(ctx context.Context, nw *network.Network, opt UnitOptions) float64 {
	span := opt.Obs.StartCtx(ctx, "timing.annotate")
	defer span.End()
	order := nw.TopoOrder()
	span.SetAttr("nodes", len(order))
	opt.Obs.Counter("timing.annotate_runs").Inc()
	opt.Obs.Counter("timing.nodes_annotated").Add(int64(len(order)))
	for _, n := range order {
		if n.IsSource() {
			a := 0.0
			if opt.PIArrival != nil {
				a = opt.PIArrival[n.Name]
			}
			n.Arrival = a
			continue
		}
		worst := math.Inf(-1)
		for _, f := range n.Fanin {
			if f.Arrival > worst {
				worst = f.Arrival
			}
		}
		n.Arrival = worst + 1
	}
	maxOut := math.Inf(-1)
	for _, o := range nw.Outputs {
		if o.Driver.Arrival > maxOut {
			maxOut = o.Driver.Arrival
		}
	}
	if len(nw.Outputs) == 0 {
		maxOut = 0
	}

	// Required times: initialize to +inf, clip at outputs, sweep backward.
	for _, n := range order {
		n.Required = math.Inf(1)
	}
	for _, o := range nw.Outputs {
		req, ok := 0.0, false
		if opt.PORequired != nil {
			req, ok = opt.PORequired[o.Name]
		}
		if !ok {
			req = opt.DefaultRequired
			if req == 0 {
				req = maxOut
			}
		}
		if req < o.Driver.Required {
			o.Driver.Required = req
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.IsSource() {
			continue
		}
		for _, f := range n.Fanin {
			if r := n.Required - 1; r < f.Required {
				f.Required = r
			}
		}
	}
	// Sources also need required times for slack reporting.
	worstSlack := math.Inf(1)
	for _, n := range order {
		if math.IsInf(n.Required, 1) {
			n.Required = maxOut
		}
		if s := n.Slack(); s < worstSlack {
			worstSlack = s
		}
	}
	opt.Obs.Gauge("timing.depth").Set(maxOut)
	if len(order) > 0 {
		opt.Obs.Gauge("timing.worst_slack").Set(worstSlack)
	}
	return maxOut
}

// WorstSlack returns the minimum slack over all annotated nodes reachable
// from the outputs. Call AnnotateUnitContext first.
func WorstSlack(nw *network.Network) float64 {
	worst := math.Inf(1)
	for _, n := range nw.TopoOrder() {
		if s := n.Slack(); s < worst {
			worst = s
		}
	}
	return worst
}
