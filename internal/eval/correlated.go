package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"powermap/internal/huffman"
	"powermap/internal/network"
	"powermap/internal/sim"
	"powermap/internal/sop"
)

// CorrelatedResult compares decomposition trees for a domino AND whose
// inputs are pairwise correlated (Section 2.1.1): a tree built assuming
// independence (plain Huffman on the marginals) versus a tree built with
// the Equation 7–9 correlated algebra. Activities are *measured* by
// simulating the correlated input stream, so the numbers reflect the true
// objective rather than either algebra's own estimate.
type CorrelatedResult struct {
	Inputs          int
	Correlation     float64 // pair mixing strength ρ
	IndepMeasured   float64 // simulated activity of the independence-built tree
	CorrMeasured    float64 // simulated activity of the correlation-aware tree
	ImprovementPct  float64 // 100·(Indep-Corr)/Indep
	IndepTreeHeight int
	CorrTreeHeight  int
}

// Correlated runs the correlated-decomposition experiment on a 2k-input
// p-type domino AND. Inputs form pairs: within a pair the second input
// copies the first with probability rho and is otherwise independent.
func Correlated(pairs int, rho float64, vectors int, seed int64) (CorrelatedResult, error) {
	if pairs < 2 {
		return CorrelatedResult{}, fmt.Errorf("eval: need at least 2 pairs, got %d", pairs)
	}
	if rho < 0 || rho > 1 {
		return CorrelatedResult{}, fmt.Errorf("eval: correlation %v outside [0,1]", rho)
	}
	n := 2 * pairs
	// Skewed per-pair base probabilities give the trees room to differ.
	base := make([]float64, pairs)
	for i := range base {
		base[i] = 0.35 + 0.5*float64(i)/float64(pairs-1)
	}
	// Exact marginals and pairwise joints of the generative model:
	// x0 ~ Bern(p); x1 = x0 with prob rho, else fresh Bern(p).
	p1 := make([]float64, n)
	joint := make([][]float64, n)
	for i := range joint {
		joint[i] = make([]float64, n)
	}
	for k := 0; k < pairs; k++ {
		p := base[k]
		a, b := 2*k, 2*k+1
		p1[a], p1[b] = p, p
		jab := rho*p + (1-rho)*p*p
		joint[a][b], joint[b][a] = jab, jab
	}
	for i := 0; i < n; i++ {
		joint[i][i] = p1[i]
		for j := 0; j < n; j++ {
			if joint[i][j] == 0 && i != j {
				joint[i][j] = p1[i] * p1[j] // across pairs: independent
			}
		}
	}

	// Tree A: plain Huffman assuming independence.
	alg := huffman.SignalAlgebra{Gate: huffman.GateAnd, Style: huffman.DominoP}
	leavesA := make([]huffman.Signal, n)
	for i, p := range p1 {
		leavesA[i] = huffman.SignalFromProb(p)
	}
	treeA := huffman.Build[huffman.Signal](alg, leavesA)

	// Tree B: correlation-aware Modified Huffman (Equations 7–9).
	corr, err := huffman.NewCorrDomino(false, p1, joint)
	if err != nil {
		return CorrelatedResult{}, err
	}
	treeB := huffman.BuildModified[huffman.CorrState](corr, corr.Leaves())

	// Measure both trees under the true correlated stream.
	measure := func(shape treeShape) (float64, error) {
		nw, names := andTreeNetwork(shape, n)
		src := pairSource(names, base, rho, seed)
		est, err := sim.ActivitiesBitwiseFrom(nw, sim.PackVectors(nw, src), vectors)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for _, node := range nw.Nodes {
			if node.Kind == network.Internal {
				// Domino-p: the gate switches when it evaluates to 1.
				total += est[node].Prob1
			}
		}
		return total, nil
	}
	mA, err := measure(shapeOfSignal(treeA))
	if err != nil {
		return CorrelatedResult{}, err
	}
	mB, err := measure(shapeOfCorr(treeB))
	if err != nil {
		return CorrelatedResult{}, err
	}
	res := CorrelatedResult{
		Inputs:          n,
		Correlation:     rho,
		IndepMeasured:   mA,
		CorrMeasured:    mB,
		IndepTreeHeight: treeA.Height(),
		CorrTreeHeight:  treeB.Height(),
	}
	if mA > 0 {
		res.ImprovementPct = 100 * (mA - mB) / mA
	}
	return res, nil
}

// treeShape is an algebra-free binary tree over leaf indices.
type treeShape struct {
	leaf int
	l, r *treeShape
}

func shapeOfSignal(t *huffman.Tree[huffman.Signal]) treeShape {
	if t.IsLeaf() {
		return treeShape{leaf: t.Leaf}
	}
	l, r := shapeOfSignal(t.Left), shapeOfSignal(t.Right)
	return treeShape{leaf: -1, l: &l, r: &r}
}

func shapeOfCorr(t *huffman.Tree[huffman.CorrState]) treeShape {
	if t.IsLeaf() {
		return treeShape{leaf: t.Leaf}
	}
	l, r := shapeOfCorr(t.Left), shapeOfCorr(t.Right)
	return treeShape{leaf: -1, l: &l, r: &r}
}

// andTreeNetwork materializes a decomposition shape as a network of AND2
// nodes over n fresh primary inputs named x0..x{n-1}.
func andTreeNetwork(shape treeShape, n int) (*network.Network, []string) {
	nw := network.New("andtree")
	names := make([]string, n)
	pis := make([]*network.Node, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("x%d", i)
		pis[i] = nw.AddPI(names[i])
	}
	and2 := func() *sop.Cover {
		f := sop.NewCover(2)
		f.AddCube(sop.Cube{sop.Pos, sop.Pos})
		return f
	}
	seq := 0
	var build func(s treeShape) *network.Node
	build = func(s treeShape) *network.Node {
		if s.leaf >= 0 {
			return pis[s.leaf]
		}
		l, r := build(*s.l), build(*s.r)
		seq++
		return nw.AddNode(fmt.Sprintf("t%d", seq), []*network.Node{l, r}, and2())
	}
	root := build(shape)
	nw.MarkOutput("y", root)
	return nw, names
}

// pairSource draws correlated input vectors: within each pair the second
// input copies the first with probability rho.
func pairSource(names []string, base []float64, rho float64, seed int64) sim.VectorSource {
	r := rand.New(rand.NewSource(seed))
	return func(dst map[string]bool) {
		for k, p := range base {
			a := r.Float64() < p
			b := a
			if r.Float64() >= rho {
				b = r.Float64() < p
			}
			dst[names[2*k]] = a
			dst[names[2*k+1]] = b
		}
	}
}

// FormatCorrelated renders a sweep of the correlated experiment.
func FormatCorrelated(rows []CorrelatedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %14s %14s %12s\n",
		"inputs", "rho", "indep tree", "corr tree", "improvement")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-6.2f %14.4f %14.4f %+11.1f%%\n",
			r.Inputs, r.Correlation, r.IndepMeasured, r.CorrMeasured, -r.ImprovementPct)
	}
	return b.String()
}
