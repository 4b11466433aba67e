// Package equiv is the repository's one combinational equivalence checker:
// it proves two networks over the same primary inputs compute the same
// output functions, or returns a counterexample. It imports only the BDD
// kernel, the network model and SOP covers, so the in-package tests of the
// pipeline stages (opt, decomp, mapper, core) can use the same oracle that
// internal/verify runs on every synthesis result.
package equiv

import (
	"context"
	"fmt"
	"strings"

	"powermap/internal/bdd"
	"powermap/internal/network"
	"powermap/internal/sop"
)

// MismatchError reports a disproved output equivalence together with one
// concrete counterexample: a cube over the reference network's primary
// inputs (declaration order) on which the two networks disagree. Don't-care
// positions mean the disagreement holds for either value of that input.
type MismatchError struct {
	// Output is the name of the differing primary output.
	Output string
	// PINames are the reference network's primary inputs in declaration
	// order, indexing Cube.
	PINames []string
	// Cube is a satisfying cube of ref_output XOR impl_output.
	Cube sop.Cube
}

// Error renders the counterexample in PI=value form, e.g.
// "output y differs; counterexample a=1 b=0 c=-".
func (e *MismatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: output %s differs; counterexample", e.Output)
	for i, name := range e.PINames {
		fmt.Fprintf(&b, " %s=%s", name, e.Cube[i].String())
	}
	return b.String()
}

// Witness returns a full concrete assignment realizing the counterexample
// (don't-care inputs are set to 0), suitable for Network.Eval.
func (e *MismatchError) Witness() map[string]bool {
	w := make(map[string]bool, len(e.PINames))
	for i, name := range e.PINames {
		w[name] = e.Cube[i] == sop.Pos
	}
	return w
}

// Equivalent proves that ref and impl compute identical output functions
// over the same primary inputs, by building global ROBDDs for both networks
// in one shared manager whose variable order is ref's PI declaration order.
// Outputs are matched by name. On a disproof the returned error is a
// *MismatchError carrying a counterexample cube extracted from the XOR of
// the two output functions; structural problems (PI/output mismatches)
// yield ordinary errors. A nil return is a proof of equivalence.
//
// cfg configures the manager (node limit, GC, reordering); the zero value
// keeps the kernel defaults. An over-wide pair of networks surfaces as a
// wrapped bdd.ErrNodeLimit, never a panic.
func Equivalent(ctx context.Context, ref, impl *network.Network, cfg bdd.Config) error {
	if len(ref.PIs) != len(impl.PIs) {
		return fmt.Errorf("verify: PI count mismatch: %d vs %d", len(ref.PIs), len(impl.PIs))
	}
	piNames := ref.PINames()
	index := make(map[string]int, len(piNames))
	for i, name := range piNames {
		index[name] = i
	}
	mgr := bdd.NewWith(len(piNames), cfg)
	build := func(nw *network.Network) (map[string]bdd.Ref, error) {
		global := make(map[*network.Node]bdd.Ref)
		for _, n := range nw.TopoOrder() {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
			var r bdd.Ref
			var err error
			if n.Kind == network.PI {
				i, ok := index[n.Name]
				if !ok {
					return nil, fmt.Errorf("verify: PI %s missing from reference network", n.Name)
				}
				r, err = mgr.Var(i)
			} else {
				inputs := make([]bdd.Ref, len(n.Fanin))
				for i, f := range n.Fanin {
					inputs[i] = global[f]
				}
				r, err = mgr.FromCover(n.Func, inputs)
			}
			if err != nil {
				if bdd.IsNodeLimit(err) {
					return nil, fmt.Errorf("verify: building BDD of %s: %w (networks too wide for the equivalence oracle; raise the node limit)", n.Name, err)
				}
				return nil, fmt.Errorf("verify: building BDD of %s: %w", n.Name, err)
			}
			global[n] = r
			mgr.Protect(r)
			mgr.Maintain()
		}
		outs := make(map[string]bdd.Ref, len(nw.Outputs))
		for _, o := range nw.Outputs {
			outs[o.Name] = global[o.Driver]
		}
		return outs, nil
	}
	refOuts, err := build(ref)
	if err != nil {
		return err
	}
	implOuts, err := build(impl)
	if err != nil {
		return err
	}
	if len(refOuts) != len(implOuts) {
		return fmt.Errorf("verify: output count mismatch: %d vs %d", len(refOuts), len(implOuts))
	}
	// Walk ref's outputs in declaration order so the first mismatch
	// reported is deterministic.
	for _, o := range ref.Outputs {
		ra := refOuts[o.Name]
		rb, ok := implOuts[o.Name]
		if !ok {
			return fmt.Errorf("verify: output %s missing from implementation", o.Name)
		}
		if ra == rb {
			continue
		}
		diff, err := mgr.Xor(ra, rb)
		if err != nil {
			return fmt.Errorf("verify: extracting counterexample for %s: %w", o.Name, err)
		}
		cube, ok := mgr.AnySat(diff)
		if !ok {
			// Distinct refs always differ somewhere (ROBDD canonicity).
			return fmt.Errorf("verify: output %s differs but no counterexample found", o.Name)
		}
		return &MismatchError{Output: o.Name, PINames: piNames, Cube: cube}
	}
	return nil
}
