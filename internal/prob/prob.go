// Package prob computes exact zero-delay signal probabilities and switching
// activities for every node of a Boolean network, in the model of
// Section 1.4 of the paper: global ROBDDs over the primary inputs are built
// for every node, probabilities are evaluated by the Equation 2 linear
// traversal, and switching activity follows the design style:
//
//	static CMOS:  E = P(0→1) + P(1→0) = 2·p·(1-p)   (Equation 3)
//	domino p:     E = P(sig = 1)
//	domino n:     E = P(sig = 0)
//
// Primary inputs are assumed spatially and temporally independent;
// reconvergent fanout inside the network is handled exactly by the BDDs.
// This is the repository's stand-in for the Ghosh et al. power estimator
// the paper used.
//
// The model owns a garbage-collected BDD manager: every node's global
// function is rooted for the model's lifetime, the manager's Maintain hook
// runs between nodes (collecting build intermediates and, when the caller
// enabled it via bdd.Config.Reorder, sifting the variable order), and a
// network too wide for the configured node limit surfaces as a wrapped
// bdd.ErrNodeLimit instead of a panic.
package prob

import (
	"context"
	"fmt"

	"powermap/internal/bdd"
	"powermap/internal/huffman"
	"powermap/internal/network"
)

// Model holds the global BDDs and probabilities of one network. Extend
// grows it over nodes added later, so one manager (and one variable order)
// can serve a network through every rewrite that preserves the functions
// of the nodes it already holds.
type Model struct {
	Style   huffman.Style
	mgr     *bdd.Manager
	global  map[*network.Node]bdd.Ref
	piProb  []float64
	piIndex map[*network.Node]int
}

// wideHint is appended to node-limit errors everywhere the prob layer can
// hit one, so CLI users see the remedy, not just the failure.
const wideHint = "network too wide for exact global BDDs; raise the node limit"

// Compute builds global BDDs for every node reachable from the outputs of
// nw and annotates each node's Prob1 and Activity fields. piProb supplies
// P(pi=1) by input name; missing inputs default to 0.5.
//
// The initial BDD variable order follows a depth-first traversal of the
// network from the outputs (the standard structural ordering heuristic),
// which keeps related inputs adjacent and the diagrams small; dynamic
// reordering (ComputeWith with Config.Reorder) can improve it further at
// run time.
func Compute(nw *network.Network, piProb map[string]float64, style huffman.Style) (*Model, error) {
	return ComputeWith(context.Background(), nw, piProb, style, bdd.Config{})
}

// ComputeWith is Compute with cancellation and an explicit BDD kernel
// configuration (node limit, GC thresholds, dynamic reordering). The
// per-node build loop checks ctx between nodes, so a deadline aborts the
// estimate promptly even on wide networks.
func ComputeWith(ctx context.Context, nw *network.Network, piProb map[string]float64, style huffman.Style, cfg bdd.Config) (*Model, error) {
	m := &Model{
		Style:   style,
		mgr:     bdd.NewWith(len(nw.PIs), cfg),
		global:  make(map[*network.Node]bdd.Ref),
		piIndex: make(map[*network.Node]int),
		piProb:  make([]float64, len(nw.PIs)),
	}
	for pi, level := range dfsVariableOrder(nw) {
		m.piIndex[pi] = level
		p, ok := piProb[pi.Name]
		if !ok {
			p = 0.5
		}
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("prob: P(%s)=%v outside [0,1]", pi.Name, p)
		}
		m.piProb[level] = p
	}
	if err := m.Extend(ctx, nw); err != nil {
		return nil, err
	}
	return m, nil
}

// Extend builds, roots and annotates every node reachable from the outputs
// of nw that the model does not hold yet, in topological order; nodes it
// already holds keep their global BDD and annotation. That is sound only
// while each held node still computes the function it was built with, so
// callers extend a model over rewrites that add nodes or rewire fanouts
// between equivalent signals, never over one that changes a held node's
// function. nw's primary inputs must be those the model was computed over.
func (m *Model) Extend(ctx context.Context, nw *network.Network) error {
	for _, n := range nw.TopoOrder() {
		if _, ok := m.global[n]; ok {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("prob: %w", err)
		}
		if err := m.build(n); err != nil {
			return err
		}
		// All node globals are rooted, so housekeeping between nodes is
		// safe: GC reclaims only build intermediates, reordering (when
		// enabled) preserves every Ref's function.
		m.mgr.Maintain()
	}
	return nil
}

// build constructs and roots n's global BDD and annotates the node.
func (m *Model) build(n *network.Node) error {
	var r bdd.Ref
	var err error
	switch n.Kind {
	case network.PI:
		level, ok := m.piIndex[n]
		if !ok {
			return fmt.Errorf("prob: primary input %s is not a variable of the model", n.Name)
		}
		r, err = m.mgr.Var(level)
	default:
		inputs := make([]bdd.Ref, len(n.Fanin))
		for i, f := range n.Fanin {
			g, ok := m.global[f]
			if !ok {
				return fmt.Errorf("prob: fanin %s of %s visited out of order", f.Name, n.Name)
			}
			inputs[i] = g
		}
		r, err = m.mgr.FromCover(n.Func, inputs)
	}
	if err != nil {
		return wideErr("building global BDD of "+n.Name, err)
	}
	m.global[n] = r
	m.mgr.Protect(r) // rooted for the model's lifetime
	p1, err := m.mgr.Prob(r, m.piProb)
	if err != nil {
		return fmt.Errorf("prob: %s: %w", n.Name, err)
	}
	n.Prob1 = p1
	n.Activity = m.activityOf(p1)
	return nil
}

// wideErr wraps kernel errors, attaching the too-wide remedy hint to
// node-limit failures so it survives to the CLI surface.
func wideErr(doing string, err error) error {
	if bdd.IsNodeLimit(err) {
		return fmt.Errorf("prob: %s: %w (%s)", doing, err, wideHint)
	}
	return fmt.Errorf("prob: %s: %w", doing, err)
}

// dfsVariableOrder assigns each primary input a BDD level by first
// encounter in a depth-first, fanin-first traversal from the outputs.
// Unreachable inputs take the remaining levels.
func dfsVariableOrder(nw *network.Network) map[*network.Node]int {
	order := make(map[*network.Node]int, len(nw.PIs))
	var visit func(n *network.Node)
	visited := make(map[*network.Node]bool)
	visit = func(n *network.Node) {
		if visited[n] {
			return
		}
		visited[n] = true
		if n.Kind == network.PI {
			order[n] = len(order)
			return
		}
		for _, f := range n.Fanin {
			visit(f)
		}
	}
	for _, o := range nw.Outputs {
		visit(o.Driver)
	}
	for _, pi := range nw.PIs {
		if _, ok := order[pi]; !ok {
			order[pi] = len(order)
		}
	}
	return order
}

func (m *Model) activityOf(p1 float64) float64 {
	switch m.Style {
	case huffman.Static:
		return 2 * p1 * (1 - p1)
	case huffman.DominoP:
		return p1
	default:
		return 1 - p1
	}
}

// Manager exposes the underlying BDD manager (for equivalence checks).
func (m *Model) Manager() *bdd.Manager { return m.mgr }

// Global returns the global BDD of a node, or false when the node was not
// reachable when the model was computed or last extended.
func (m *Model) Global(n *network.Node) (bdd.Ref, bool) {
	r, ok := m.global[n]
	return r, ok
}

// ActivityOfRef returns the switching activity of an arbitrary global
// function under the model's style.
func (m *Model) ActivityOfRef(r bdd.Ref) float64 {
	return m.activityOf(m.Prob1OfRef(r))
}

// Prob1OfRef returns the 1-probability of an arbitrary global function.
// The model's own probability vector always matches its manager, so the
// traversal cannot fail.
func (m *Model) Prob1OfRef(r bdd.Ref) float64 {
	p, err := m.mgr.Prob(r, m.piProb)
	if err != nil {
		// Unreachable by construction; surface loudly in tests if the
		// invariant is ever broken rather than silently returning 0.
		panic(err)
	}
	return p
}
