package equiv_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/network"
	"powermap/internal/sop"
	"powermap/internal/verify"
	"powermap/internal/verify/equiv"
)

// checkInTurn checks impls one after another against one oracle over ref,
// as verify.CheckResult does, and each also in a fresh oracle, which is
// what Equivalent runs. The verdicts and errors must be the same, every
// counterexample must tell the networks apart, and no check may raise the
// shared oracle's peak live nodes above the fresh manager's peak for that
// check. It returns the number of disproofs.
func checkInTurn(t *testing.T, name string, ref *network.Network, impls []*network.Network) int {
	t.Helper()
	ctx := context.Background()
	oracle := equiv.NewOracle(ref, bdd.Config{})
	var peak int64
	disproofs := 0
	for i, impl := range impls {
		k := i + 1 // checks count from 1 in messages
		err := oracle.Check(ctx, impl)
		fresh := equiv.NewOracle(ref, bdd.Config{})
		want := fresh.Check(ctx, impl)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s check %d: shared oracle returned %v, fresh %v", name, k, err, want)
		}
		if err != nil {
			var mm *equiv.MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("%s check %d: %v", name, k, err)
			}
			w := mm.Witness()
			if ref.Eval(w)[mm.Output] == impl.Eval(w)[mm.Output] {
				t.Fatalf("%s check %d: witness %v does not distinguish output %s", name, k, w, mm.Output)
			}
			disproofs++
		}
		got, fp := equiv.PeakLive(oracle), equiv.PeakLive(fresh)
		if got > max(peak, fp) {
			t.Errorf("%s check %d raised the shared oracle's peak to %d live nodes; a fresh manager peaks at %d",
				name, k, got, fp)
		}
		peak = got
	}
	return disproofs
}

// mutant copies nw with one literal of one cube moved to another value.
func mutant(nw *network.Network, r *rand.Rand) *network.Network {
	m := nw.Duplicate()
	n := m.Nodes[r.Intn(len(m.Nodes))]
	c := n.Func.Cubes[r.Intn(len(n.Func.Cubes))]
	v := r.Intn(len(c))
	c[v] = (c[v] + sop.Lit(1+r.Intn(2))) % 3
	return m
}

// TestOracleMatchesFreshChecks runs the shared-manager checks against
// fresh ones: the source of every bundled circuit against its optimized,
// decomposed and mapped networks under Methods I and VI, and random
// networks against one-literal mutants and an exact copy.
func TestOracleMatchesFreshChecks(t *testing.T) {
	ctx := context.Background()
	for _, b := range circuits.Suite() {
		src := b.Build()
		for _, m := range []core.Method{core.MethodI, core.MethodVI} {
			res, err := core.SynthesizeContext(ctx, src, core.Options{Method: m})
			if err != nil {
				t.Fatalf("%s Method %s: %v", b.Name, m, err)
			}
			mapped, err := res.Netlist.ToNetwork()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s Method %s", b.Name, m)
			if n := checkInTurn(t, name, src, []*network.Network{res.Optimized, res.Decomp.Network, mapped}); n != 0 {
				t.Fatalf("%s: %d disproofs of a synthesized run", name, n)
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	disproofs := 0
	for seed := int64(0); seed < 60; seed++ {
		ref := verify.RandomNetwork("ref", verify.RandConfig{Seed: seed, PIs: 3 + int(seed)%6, Nodes: 16})
		disproofs += checkInTurn(t, fmt.Sprintf("random seed %d", seed), ref,
			[]*network.Network{mutant(ref, r), ref.Duplicate(), mutant(ref, r)})
	}
	if disproofs == 0 {
		t.Fatal("no mutant was told apart: the random half proves nothing")
	}
}
