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
// over the same primary inputs: it is one Check of a fresh Oracle over
// ref. On a disproof the returned error is a *MismatchError; structural
// problems (PI/output mismatches) yield ordinary errors. A nil return is a
// proof of equivalence.
//
// cfg configures the manager (node limit, GC, reordering); the zero value
// keeps the kernel defaults. An over-wide pair of networks surfaces as a
// wrapped bdd.ErrNodeLimit, never a panic.
func Equivalent(ctx context.Context, ref, impl *network.Network, cfg bdd.Config) error {
	return NewOracle(ref, cfg).Check(ctx, impl)
}

// Oracle checks implementations one at a time against one reference
// network. It builds global ROBDDs in its own manager whose variable order
// is the reference's PI declaration order: the reference's outputs once,
// on the first Check, and each implementation's on its own Check. Before
// building the next implementation it releases the previous one's roots
// and collects them, so each check peaks at no more live nodes than a
// fresh manager holding the reference and that one implementation. An
// Oracle is not safe for concurrent use.
type Oracle struct {
	ref     *network.Network
	piNames []string
	index   map[string]int
	mgr     *bdd.Manager

	refOuts map[string]bdd.Ref // nil until a Check has built the reference
	held    []*bdd.Root        // the last implementation's roots
}

// NewOracle returns an oracle over ref whose manager is configured by cfg.
func NewOracle(ref *network.Network, cfg bdd.Config) *Oracle {
	piNames := ref.PINames()
	index := make(map[string]int, len(piNames))
	for i, name := range piNames {
		index[name] = i
	}
	return &Oracle{ref: ref, piNames: piNames, index: index, mgr: bdd.NewWith(len(piNames), cfg)}
}

// Check proves that impl computes the reference's output functions over
// the same primary inputs, matching outputs by name. On a disproof the
// returned error is a *MismatchError carrying a counterexample cube
// extracted from the XOR of the two output functions, for the first
// differing output in the reference's declaration order.
func (o *Oracle) Check(ctx context.Context, impl *network.Network) error {
	if len(o.ref.PIs) != len(impl.PIs) {
		return fmt.Errorf("verify: PI count mismatch: %d vs %d", len(o.ref.PIs), len(impl.PIs))
	}
	if o.refOuts == nil {
		outs, err := o.build(ctx, o.ref, nil)
		if err != nil {
			return err
		}
		o.refOuts = outs
	}
	if len(o.held) > 0 {
		for _, rt := range o.held {
			rt.Release()
		}
		o.held = o.held[:0]
		o.mgr.GC()
	}
	implOuts, err := o.build(ctx, impl, &o.held)
	if err != nil {
		return err
	}
	if len(o.refOuts) != len(implOuts) {
		return fmt.Errorf("verify: output count mismatch: %d vs %d", len(o.refOuts), len(implOuts))
	}
	// Walk ref's outputs in declaration order so the first mismatch
	// reported is deterministic.
	for _, out := range o.ref.Outputs {
		ra := o.refOuts[out.Name]
		rb, ok := implOuts[out.Name]
		if !ok {
			return fmt.Errorf("verify: output %s missing from implementation", out.Name)
		}
		if ra == rb {
			continue
		}
		diff, err := o.mgr.Xor(ra, rb)
		if err != nil {
			return fmt.Errorf("verify: extracting counterexample for %s: %w", out.Name, err)
		}
		cube, ok := o.mgr.AnySat(diff)
		if !ok {
			// Distinct refs always differ somewhere (ROBDD canonicity).
			return fmt.Errorf("verify: output %s differs but no counterexample found", out.Name)
		}
		return &MismatchError{Output: out.Name, PINames: o.piNames, Cube: cube}
	}
	return nil
}

// build constructs and roots the global BDD of every node of nw in
// topological order and returns the output functions by name. When held
// is non-nil the root handles are appended to it, so the caller can
// release them; the reference's roots are kept for the oracle's lifetime.
func (o *Oracle) build(ctx context.Context, nw *network.Network, held *[]*bdd.Root) (map[string]bdd.Ref, error) {
	global := make(map[*network.Node]bdd.Ref, len(nw.Nodes)+len(nw.PIs))
	for _, n := range nw.TopoOrder() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		var r bdd.Ref
		var err error
		if n.Kind == network.PI {
			i, ok := o.index[n.Name]
			if !ok {
				return nil, fmt.Errorf("verify: PI %s missing from reference network", n.Name)
			}
			r, err = o.mgr.Var(i)
		} else {
			inputs := make([]bdd.Ref, len(n.Fanin))
			for i, f := range n.Fanin {
				inputs[i] = global[f]
			}
			r, err = o.mgr.FromCover(n.Func, inputs)
		}
		if err != nil {
			if bdd.IsNodeLimit(err) {
				return nil, fmt.Errorf("verify: building BDD of %s: %w (networks too wide for the equivalence oracle; raise the node limit)", n.Name, err)
			}
			return nil, fmt.Errorf("verify: building BDD of %s: %w", n.Name, err)
		}
		global[n] = r
		rt := o.mgr.Protect(r)
		if held != nil {
			*held = append(*held, rt)
		}
		o.mgr.Maintain()
	}
	outs := make(map[string]bdd.Ref, len(nw.Outputs))
	for _, out := range nw.Outputs {
		outs[out.Name] = global[out.Driver]
	}
	return outs, nil
}
