package huffman

import (
	"fmt"
	"strings"
)

// Gate selects the logic operation realized by every internal node of a
// decomposition tree.
type Gate int

const (
	// GateAnd decomposes an AND (paper Section 2.1: AND decomposition).
	GateAnd Gate = iota
	// GateOr decomposes an OR (used for the OR level of SOP nodes).
	GateOr
)

func (g Gate) String() string {
	if g == GateAnd {
		return "AND"
	}
	return "OR"
}

// Style is the CMOS design style, which determines which probability counts
// as switching activity (paper Section 1.2).
type Style int

const (
	// Static CMOS: activity = P(0→1) + P(1→0).
	Static Style = iota
	// DominoP: p-type dynamic CMOS, precharged low; activity = P(out=1).
	DominoP
	// DominoN: n-type dynamic CMOS, precharged high; activity = P(out=0).
	DominoN
)

func (s Style) String() string {
	switch s {
	case Static:
		return "static"
	case DominoP:
		return "domino-p"
	default:
		return "domino-n"
	}
}

// ParseStyle resolves a design-style name, case-insensitively: static
// (or ""), domino-p (dominop, p) or domino-n (dominon, n).
func ParseStyle(s string) (Style, error) {
	switch strings.ToLower(s) {
	case "", "static":
		return Static, nil
	case "domino-p", "dominop", "p":
		return DominoP, nil
	case "domino-n", "dominon", "n":
		return DominoN, nil
	}
	return 0, fmt.Errorf("unknown style %q (want static, domino-p or domino-n)", s)
}

// Signal is the probabilistic state of a subtree root: the joint
// distribution of (previous value, next value) of the signal. The four
// entries sum to 1. Under the paper's temporal-independence assumption the
// leaf distribution factorizes from the static probability p = P(sig=1):
// P01 = (1-p)p, P11 = p², and so on (Equation 3).
type Signal struct {
	P00, P01, P10, P11 float64
}

// SignalFromProb returns the leaf signal for a static 1-probability p under
// temporal independence of consecutive input vectors.
func SignalFromProb(p float64) Signal {
	q := 1 - p
	return Signal{P00: q * q, P01: q * p, P10: p * q, P11: p * p}
}

// Prob1 returns the static probability of the signal being 1.
func (s Signal) Prob1() float64 { return s.P01 + s.P11 }

// Prob0 returns the static probability of the signal being 0.
func (s Signal) Prob0() float64 { return s.P00 + s.P10 }

// Toggle returns the static-CMOS switching activity P(0→1) + P(1→0).
func (s Signal) Toggle() float64 { return s.P01 + s.P10 }

// MergeSignals combines two independent child signals through a 2-input
// gate. For AND the output is 1 exactly when both inputs are 1, so the
// transition distribution is the product distribution marginalized through
// the gate; this reproduces Equations 5 and 10–11 of the paper. OR is the
// De Morgan dual (Equation 6).
func MergeSignals(g Gate, a, b Signal) Signal {
	switch g {
	case GateAnd:
		// prev1 = a.prev1 & b.prev1, next1 = a.next1 & b.next1.
		p11 := a.P11 * b.P11
		prev1 := (a.P10 + a.P11) * (b.P10 + b.P11)
		next1 := (a.P01 + a.P11) * (b.P01 + b.P11)
		p10 := prev1 - p11
		p01 := next1 - p11
		return Signal{P00: 1 - p01 - p10 - p11, P01: p01, P10: p10, P11: p11}
	case GateOr:
		na, nb := a.negate(), b.negate()
		return MergeSignals(GateAnd, na, nb).negate()
	}
	panic(fmt.Sprintf("huffman: unknown gate %d", g))
}

func (s Signal) negate() Signal {
	return Signal{P00: s.P11, P01: s.P10, P10: s.P01, P11: s.P00}
}

// SignalAlgebra is the uncorrelated-input algebra over Signal states for a
// given gate type and design style. For DominoP/DominoN the cost functions
// are the quasi-linear weight combinations of Equations 5 and 6 (Lemma 2.1),
// so Build (plain Huffman) is optimal; for Static the cost (Equations
// 10–11) is not quasi-linear and BuildModified is the intended constructor.
type SignalAlgebra struct {
	Gate  Gate
	Style Style
}

// Merge combines two child signals through the algebra's gate.
func (a SignalAlgebra) Merge(x, y Signal) Signal { return MergeSignals(a.Gate, x, y) }

// Cost returns the switching activity of a node with state s under the
// algebra's design style.
func (a SignalAlgebra) Cost(s Signal) float64 {
	switch a.Style {
	case Static:
		return s.Toggle()
	case DominoP:
		return s.Prob1()
	default:
		return s.Prob0()
	}
}

// QuasiLinear reports whether the algebra's weight combination function is
// quasi-linear, i.e. whether plain Huffman construction is optimal
// (Lemma 2.1 / Theorem 2.2).
func (a SignalAlgebra) QuasiLinear() bool { return a.Style != Static }

// CorrState is the state used by the correlated-domino algebra: the static
// 1-probability of the subtree output plus an identifier into the algebra's
// pairwise conditional-probability table.
type CorrState struct {
	P1 float64
	id int
}

// CorrDomino is the correlated-input domino algebra of Section 2.1.1
// (Equations 7–9): leaves carry pairwise joint probabilities
// joint[i][j] = P(sig_i = 1 ∧ sig_j = 1), from which conditionals are
// derived, and a merged node A = i·j receives a joint with every remaining
// node k by the Equation 9 heuristic, which averages the three chain-rule
// factorizations of the triple joint P(i ∧ j ∧ k):
//
//	P(A∧k) ≈ ( (P(k|i)+P(k|j))/2·P(i,j) + (P(j|k)+P(j|i))/2·P(i,k)
//	          + (P(i|j)+P(i|k))/2·P(j,k) ) / 3
//
// Under independent inputs this reduces exactly to P(i)P(j)P(k). The weight
// combination is not quasi-linear, so BuildModified is the intended
// constructor. The algebra is stateful (it grows its joint table as nodes
// merge) and must not be shared between concurrent builds.
type CorrDomino struct {
	NType bool // n-type domino: activity is P(out = 0)
	joint [][]float64
	p1    []float64
}

// NewCorrDomino returns an algebra over len(p1) leaves with the given
// pairwise joint probabilities joint[i][j] = P(i=1 ∧ j=1). The table must
// be square with len(p1) rows; diagonal entries are forced to p1[i].
func NewCorrDomino(nType bool, p1 []float64, joint [][]float64) (*CorrDomino, error) {
	n := len(p1)
	if len(joint) != n {
		return nil, fmt.Errorf("huffman: joint table has %d rows, want %d", len(joint), n)
	}
	c := &CorrDomino{NType: nType}
	c.p1 = append([]float64(nil), p1...)
	c.joint = make([][]float64, n)
	for i := range joint {
		if len(joint[i]) != n {
			return nil, fmt.Errorf("huffman: joint table row %d has %d entries, want %d", i, len(joint[i]), n)
		}
		c.joint[i] = append([]float64(nil), joint[i]...)
		c.joint[i][i] = p1[i]
	}
	return c, nil
}

// Leaves returns the leaf states for use with BuildModified.
func (c *CorrDomino) Leaves() []CorrState {
	out := make([]CorrState, len(c.p1))
	for i, p := range c.p1 {
		out[i] = CorrState{P1: p, id: i}
	}
	return out
}

// cond returns P(x=1 | y=1).
func (c *CorrDomino) cond(x, y int) float64 {
	if c.p1[y] == 0 {
		return 0
	}
	return clamp01(c.joint[x][y] / c.p1[y])
}

// Merge combines two subtrees through an AND gate: the new node's
// 1-probability is the joint of its children (Equation 7), and its joint
// with every remaining node is estimated by the Equation 9 heuristic.
func (c *CorrDomino) Merge(a, b CorrState) CorrState {
	pAB := c.joint[a.id][b.id]
	newID := len(c.p1)
	c.p1 = append(c.p1, pAB)
	for i := range c.joint {
		c.joint[i] = append(c.joint[i], 0)
	}
	c.joint = append(c.joint, make([]float64, newID+1))
	c.joint[newID][newID] = pAB
	i, j := a.id, b.id
	for k := 0; k < newID; k++ {
		t1 := (c.cond(k, i) + c.cond(k, j)) / 2 * c.joint[i][j]
		t2 := (c.cond(j, k) + c.cond(j, i)) / 2 * c.joint[i][k]
		t3 := (c.cond(i, j) + c.cond(i, k)) / 2 * c.joint[j][k]
		w := (t1 + t2 + t3) / 3
		if w > pAB {
			w = pAB
		}
		if w > c.p1[k] {
			w = c.p1[k]
		}
		c.joint[newID][k] = w
		c.joint[k][newID] = w
	}
	return CorrState{P1: pAB, id: newID}
}

// Cost prices a node: P(out=1) for p-type domino, P(out=0) for n-type
// (Equations 7 and 8).
func (c *CorrDomino) Cost(s CorrState) float64 {
	if c.NType {
		return 1 - s.P1
	}
	return s.P1
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// OracleAlgebra prices nodes through an externally supplied cost function
// while combining states with an externally supplied merge; the technology
// decomposition uses it with a BDD-backed exact-activity oracle, the
// alternative the paper offers to Equation 9 ("Alternatively, W_Ak can be
// calculated using BDDs").
type OracleAlgebra[S any] struct {
	MergeFn func(a, b S) S
	CostFn  func(s S) float64
}

// Merge applies the supplied merge function.
func (o OracleAlgebra[S]) Merge(a, b S) S { return o.MergeFn(a, b) }

// Cost applies the supplied cost function.
func (o OracleAlgebra[S]) Cost(s S) float64 { return o.CostFn(s) }
