package equiv_test

import (
	"context"
	"errors"
	"testing"

	"powermap/internal/bdd"
	"powermap/internal/network"
	"powermap/internal/sop"
	"powermap/internal/verify"
	"powermap/internal/verify/equiv"
)

// FuzzEquivalent checks the BDD oracle against exhaustive evaluation. The
// fuzzer picks a random network of at most 8 primary inputs and a copy
// with one literal of one cube changed; the oracle must prove the pair
// equivalent exactly when the two agree on all 2^n inputs, and every
// disproof's witness must tell them apart.
func FuzzEquivalent(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(11), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(7), uint8(15), uint8(3), uint8(1), uint8(2), true)
	f.Add(int64(42), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, pis, nodes, site, cube, pos uint8, other bool) {
		ref := verify.RandomNetwork("ref", verify.RandConfig{
			Seed:  seed,
			PIs:   1 + int(pis%8),
			Nodes: 1 + int(nodes%16),
		})
		impl := ref.Duplicate()
		n := impl.Nodes[int(site)%len(impl.Nodes)]
		c := n.Func.Cubes[int(cube)%len(n.Func.Cubes)]
		v := int(pos) % len(c)
		// Move the literal to one of the two other values of {-, 1, 0}.
		step := sop.Lit(1)
		if other {
			step = 2
		}
		c[v] = (c[v] + step) % 3

		same, err := network.EquivalentBrute(ref, impl)
		if err != nil {
			t.Fatal(err)
		}
		err = equiv.Equivalent(context.Background(), ref, impl, bdd.Config{})
		if same {
			if err != nil {
				t.Fatalf("oracle rejects networks that agree on every input: %v", err)
			}
			return
		}
		var mm *equiv.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("networks differ on some input, oracle returned %v", err)
		}
		w := mm.Witness()
		if ref.Eval(w)[mm.Output] == impl.Eval(w)[mm.Output] {
			t.Fatalf("witness %v does not distinguish output %s", w, mm.Output)
		}
	})
}
