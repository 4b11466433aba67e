// Package verify is the correctness oracle for the synthesis pipeline: the
// end-to-end proof of a synthesis run built on the equiv package's BDD
// equivalence checker, a seeded random-network generator for
// property-based testing of the whole flow, and invariant checkers for the
// paper's optimality claims (Huffman/package-merge tree costs against
// exhaustive enumeration, power-delay curve non-inferiority, mapped-report
// self-consistency).
//
// The equivalence oracle is independent of the flow under test: it
// rebuilds global ROBDDs for both networks from scratch in a fresh manager
// ordered by the reference network's PI declaration order, so a bug in the
// pipeline's own probability model cannot mask itself. A disproof comes
// back as an *equiv.MismatchError carrying a satisfying cube of the XOR of
// the two output functions — a concrete input on which the circuits
// disagree.
//
// CheckResult chains the checks every synthesis run must pass and is wired
// into eval.RunSuite (making benchmark runs self-verifying) and the pcheck
// CLI (cmd/pcheck).
package verify

import (
	"context"
	"fmt"

	"powermap/internal/core"
	"powermap/internal/network"
	"powermap/internal/verify/equiv"
)

// CheckResult verifies one completed synthesis run end to end against its
// source network: src ≡ optimized network, src ≡ decomposed subject graph,
// src ≡ mapped netlist (reconstructed as a Boolean network from the gate
// list, independently of the pipeline's own gate-by-gate check), and the
// netlist report's internal consistency. Any failure is returned with the
// stage that broke; equivalence failures are *equiv.MismatchError values
// with a counterexample cube.
//
// The oracle's managers take the run's own BDD budget, res.Options.BDD, so
// a node limit binds verification exactly as it bound synthesis.
func CheckResult(ctx context.Context, src *network.Network, res *core.Result) error {
	cfg := res.Options.BDD
	if err := equiv.Equivalent(ctx, src, res.Optimized, cfg); err != nil {
		return fmt.Errorf("optimized network: %w", err)
	}
	if err := equiv.Equivalent(ctx, src, res.Decomp.Network, cfg); err != nil {
		return fmt.Errorf("decomposed subject graph: %w", err)
	}
	mapped, err := res.Netlist.ToNetwork()
	if err != nil {
		return fmt.Errorf("reconstructing mapped netlist: %w", err)
	}
	if err := mapped.Check(); err != nil {
		return fmt.Errorf("reconstructed mapped netlist: %w", err)
	}
	if err := equiv.Equivalent(ctx, src, mapped, cfg); err != nil {
		return fmt.Errorf("mapped netlist: %w", err)
	}
	if err := CheckNetlist(res.Netlist); err != nil {
		return fmt.Errorf("netlist report: %w", err)
	}
	return nil
}
