// Package circuits provides the benchmark suite for the experiments of
// Section 4. The original paper evaluates on subsets of ISCAS-89 and
// MCNC-91; those netlists are not redistributable here, so each named
// circuit is a deterministic stand-in with the same interface size and a
// comparable optimized-network size (see DESIGN.md section 2):
//
//   - cm42a is implemented exactly: a 4-to-10 BCD decoder, which is the
//     real MCNC cm42a function;
//   - alu2 is a structural 4-bit ALU (carry chain, operation select) with
//     the original's 10-input/6-output interface;
//   - the ISCAS-89 s-circuits and remaining MCNC circuits are seeded
//     layered random logic with the original PI/PO counts, exercising the
//     identical synthesis code paths.
//
// All builders are deterministic: the same name always yields the same
// network.
package circuits

import (
	"fmt"
	"math/rand"

	"powermap/internal/network"
	"powermap/internal/sop"
)

// Benchmark is one suite entry.
type Benchmark struct {
	Name string
	// Build constructs a fresh copy of the circuit.
	Build func() *network.Network
	// Description records what the circuit is and what it stands in for.
	Description string
}

// Suite returns the 17 benchmark circuits of Tables 2 and 3, in the
// paper's row order.
func Suite() []Benchmark {
	random := func(name string, npi, npo, nnodes int, seed int64) Benchmark {
		return Benchmark{
			Name: name,
			Build: func() *network.Network {
				return Random(name, seed, npi, npo, nnodes)
			},
			Description: fmt.Sprintf("seeded random logic, %d PI / %d PO / %d nodes (stand-in)", npi, npo, nnodes),
		}
	}
	return []Benchmark{
		random("s208", 11, 9, 55, 208),
		random("s344", 15, 13, 105, 344),
		random("s382", 14, 12, 100, 382),
		random("s444", 14, 12, 110, 444),
		random("s510", 25, 20, 180, 510),
		random("s526", 14, 12, 125, 526),
		random("s641", 22, 19, 145, 641),
		random("s713", 22, 19, 140, 713),
		random("s820", 23, 19, 195, 820),
		{Name: "cm42a", Build: func() *network.Network { return Decoder10() },
			Description: "exact MCNC cm42a: 4-to-10 BCD decoder"},
		random("x1", 30, 20, 190, 101),
		random("x2", 10, 7, 38, 102),
		random("x3", 60, 40, 460, 103),
		random("ttt2", 24, 21, 145, 104),
		random("apex7", 28, 20, 155, 105),
		{Name: "alu2", Build: func() *network.Network { return ALU(4) },
			Description: "structural 4-bit ALU with carry chain (alu2 interface)"},
		random("ex2", 20, 15, 210, 106),
	}
}

// ByName returns the named benchmark, or an error listing valid names.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	names := ""
	for _, b := range Suite() {
		names += " " + b.Name
	}
	return Benchmark{}, fmt.Errorf("circuits: unknown benchmark %q (have:%s)", name, names)
}

// Random builds a deterministic layered random multi-level network with the
// given interface and internal node count. Nodes are organized into layers
// (like the 10–20-level structure of real ISCAS/MCNC netlists): each node
// draws most fanins from the immediately preceding layer, with occasional
// taps further back and to the primary inputs.
//
// Wide circuits are split into independent blocks of at most blockPIs
// primary inputs each. Real netlists have bounded per-output input cones;
// unconstrained random logic over many shared inputs does not, and is
// intractable for the exact BDD-based power estimator (random functions
// have exponential BDDs under every variable order).
func Random(name string, seed int64, npi, npo, nnodes int) *network.Network {
	const blockPIs = 18
	if npi > blockPIs {
		return randomBlocks(name, seed, npi, npo, nnodes, blockPIs)
	}
	return randomBlock(network.New(name), rand.New(rand.NewSource(seed)), "", npi, npo, nnodes)
}

// randomBlocks stitches independent sub-circuits into one network.
func randomBlocks(name string, seed int64, npi, npo, nnodes, blockPIs int) *network.Network {
	nw := network.New(name)
	blocks := (npi + blockPIs - 1) / blockPIs
	r := rand.New(rand.NewSource(seed))
	for bi := 0; bi < blocks; bi++ {
		bpi := npi / blocks
		bpo := npo / blocks
		bnodes := nnodes / blocks
		if bi == blocks-1 { // remainder goes to the last block
			bpi = npi - bpi*(blocks-1)
			bpo = npo - bpo*(blocks-1)
			bnodes = nnodes - bnodes*(blocks-1)
		}
		randomBlock(nw, rand.New(rand.NewSource(seed+int64(bi)*7919)), fmt.Sprintf("b%d_", bi), bpi, bpo, bnodes)
	}
	_ = r
	return nw
}

// randomBlock adds one layered random cone to nw with prefixed names.
func randomBlock(nw *network.Network, r *rand.Rand, prefix string, npi, npo, nnodes int) *network.Network {
	var pis []*network.Node
	for i := 0; i < npi; i++ {
		pis = append(pis, nw.AddPI(fmt.Sprintf("%spi%02d", prefix, i)))
	}
	// Depth grows slowly with size, matching real multilevel circuits.
	layers := 5 + nnodes/60
	if layers > 14 {
		layers = 14
	}
	width := (nnodes + layers - 1) / layers
	prev := pis
	var all [][]*network.Node
	made := 0
	for l := 0; l < layers && made < nnodes; l++ {
		var layer []*network.Node
		for w := 0; w < width && made < nnodes; w++ {
			k := 2 + r.Intn(3) // 2..4 fanins
			var fanins []*network.Node
			seen := map[*network.Node]bool{}
			pick := func(src []*network.Node) {
				f := src[r.Intn(len(src))]
				if !seen[f] {
					seen[f] = true
					fanins = append(fanins, f)
				}
			}
			for tries := 0; len(fanins) < k && tries < 40; tries++ {
				switch {
				case r.Intn(10) < 6 || len(all) == 0:
					pick(prev)
				case r.Intn(10) < 7 && len(all) > 0:
					pick(all[r.Intn(len(all))])
				default:
					pick(pis)
				}
			}
			if len(fanins) < 2 {
				pick(pis)
			}
			f := randomCover(r, len(fanins))
			layer = append(layer, nw.AddNode(fmt.Sprintf("%sn%04d", prefix, made), fanins, f))
			made++
		}
		all = append(all, layer)
		prev = layer
	}
	// Outputs: mostly from the last layers, a few mid-depth taps.
	var candidates []*network.Node
	for l := len(all) - 1; l >= 0 && len(candidates) < npo*3; l-- {
		candidates = append(candidates, all[l]...)
	}
	used := map[*network.Node]bool{}
	for o := 0; o < npo; o++ {
		var d *network.Node
		for tries := 0; tries < 60; tries++ {
			d = candidates[r.Intn(len(candidates))]
			if !used[d] {
				break
			}
		}
		used[d] = true
		nw.MarkOutput(fmt.Sprintf("%spo%02d", prefix, o), d)
	}
	nw.Sweep()
	return nw
}

// randomCover produces a non-constant cover with 1..3 cubes of 2..k
// literals.
func randomCover(r *rand.Rand, k int) *sop.Cover {
	for {
		f := sop.NewCover(k)
		ncubes := 1 + r.Intn(3)
		for c := 0; c < ncubes; c++ {
			cube := sop.NewCube(k)
			nlits := 2
			if k > 2 {
				nlits = 2 + r.Intn(k-1)
			}
			perm := r.Perm(k)
			for _, v := range perm[:nlits] {
				if r.Intn(2) == 0 {
					cube[v] = sop.Pos
				} else {
					cube[v] = sop.Neg
				}
			}
			f.AddCube(cube)
		}
		f.Minimize()
		if !f.IsZero() && !f.IsOne() {
			return f
		}
	}
}

// Decoder10 builds the exact cm42a function: a 4-to-10 BCD decoder with
// active outputs d0..d9 (output i is the minterm of BCD value i).
func Decoder10() *network.Network {
	nw := network.New("cm42a")
	ins := make([]*network.Node, 4)
	for i := range ins {
		ins[i] = nw.AddPI(fmt.Sprintf("a%d", i))
	}
	for v := 0; v < 10; v++ {
		f := sop.NewCover(4)
		cube := sop.NewCube(4)
		for b := 0; b < 4; b++ {
			if v>>b&1 == 1 {
				cube[b] = sop.Pos
			} else {
				cube[b] = sop.Neg
			}
		}
		f.AddCube(cube)
		n := nw.AddNode(fmt.Sprintf("m%d", v), ins, f)
		nw.MarkOutput(fmt.Sprintf("d%d", v), n)
	}
	return nw
}

// ALU builds a structural ALU over two bits-wide operands with a carry
// input and a 2-bit operation select (00 add, 01 and, 10 or, 11 xor),
// producing the result bits and carry out. ALU(4) has the 10-input,
// 6-output interface of MCNC alu2.
func ALU(bits int) *network.Network {
	nw := network.New(fmt.Sprintf("alu%d", bits/2))
	a := make([]*network.Node, bits)
	b := make([]*network.Node, bits)
	for i := 0; i < bits; i++ {
		a[i] = nw.AddPI(fmt.Sprintf("a%d", i))
		b[i] = nw.AddPI(fmt.Sprintf("b%d", i))
	}
	cin := nw.AddPI("cin")
	op0 := nw.AddPI("op0")
	op1 := nw.AddPI("op1")

	xor2 := func(n int) *sop.Cover {
		f := sop.NewCover(2)
		f.AddCube(sop.Cube{sop.Pos, sop.Neg})
		f.AddCube(sop.Cube{sop.Neg, sop.Pos})
		_ = n
		return f
	}
	and2 := func() *sop.Cover {
		f := sop.NewCover(2)
		f.AddCube(sop.Cube{sop.Pos, sop.Pos})
		return f
	}
	or2 := func() *sop.Cover {
		f := sop.NewCover(2)
		f.AddCube(sop.Cube{sop.Pos, sop.DC})
		f.AddCube(sop.Cube{sop.DC, sop.Pos})
		return f
	}
	// Carry chain: c_{i+1} = a·b + c·(a+b); sum_i = a ^ b ^ c.
	carry := cin
	sums := make([]*network.Node, bits)
	for i := 0; i < bits; i++ {
		axb := nw.AddNode(fmt.Sprintf("axb%d", i), []*network.Node{a[i], b[i]}, xor2(i))
		sums[i] = nw.AddNode(fmt.Sprintf("sum%d", i), []*network.Node{axb, carry}, xor2(i))
		// c' = a·b + carry·(a^b)
		gen := nw.AddNode(fmt.Sprintf("gen%d", i), []*network.Node{a[i], b[i]}, and2())
		prop := nw.AddNode(fmt.Sprintf("prop%d", i), []*network.Node{axb, carry}, and2())
		carry = nw.AddNode(fmt.Sprintf("cry%d", i), []*network.Node{gen, prop}, or2())
	}
	// Logic ops per bit and the 4-way op mux.
	for i := 0; i < bits; i++ {
		andN := nw.AddNode(fmt.Sprintf("and%d", i), []*network.Node{a[i], b[i]}, and2())
		orN := nw.AddNode(fmt.Sprintf("or%d", i), []*network.Node{a[i], b[i]}, or2())
		xorN := nw.AddNode(fmt.Sprintf("xor%d", i), []*network.Node{a[i], b[i]}, xor2(i))
		// mux: op1'op0'·sum + op1'op0·and + op1 op0'·or + op1 op0·xor
		f := sop.NewCover(6) // vars: op1 op0 sum and or xor
		f.AddCube(sop.Cube{sop.Neg, sop.Neg, sop.Pos, sop.DC, sop.DC, sop.DC})
		f.AddCube(sop.Cube{sop.Neg, sop.Pos, sop.DC, sop.Pos, sop.DC, sop.DC})
		f.AddCube(sop.Cube{sop.Pos, sop.Neg, sop.DC, sop.DC, sop.Pos, sop.DC})
		f.AddCube(sop.Cube{sop.Pos, sop.Pos, sop.DC, sop.DC, sop.DC, sop.Pos})
		res := nw.AddNode(fmt.Sprintf("res%d", i),
			[]*network.Node{op1, op0, sums[i], andN, orN, xorN}, f)
		nw.MarkOutput(fmt.Sprintf("r%d", i), res)
	}
	// Carry out gated to the add operation.
	f := sop.NewCover(3) // op1 op0 carry
	f.AddCube(sop.Cube{sop.Neg, sop.Neg, sop.Pos})
	cout := nw.AddNode("coutn", []*network.Node{op1, op0, carry}, f)
	nw.MarkOutput("cout", cout)
	nw.MarkOutput("zero", sums[0]) // a cheap extra status output
	return nw
}

// Figure1 returns the paper's Figure 1 example: a 4-input AND with the
// probabilities used in the worked example, for a p-type dynamic circuit.
func Figure1() (*network.Network, map[string]float64) {
	nw := network.New("figure1")
	ins := make([]*network.Node, 4)
	names := []string{"a", "b", "c", "d"}
	for i, s := range names {
		ins[i] = nw.AddPI(s)
	}
	f := sop.NewCover(4)
	f.AddCube(sop.Cube{sop.Pos, sop.Pos, sop.Pos, sop.Pos})
	y := nw.AddNode("y", ins, f)
	nw.MarkOutput("y", y)
	return nw, map[string]float64{"a": 0.3, "b": 0.4, "c": 0.7, "d": 0.5}
}
