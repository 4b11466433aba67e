// Package aig implements a structurally hashed AND-inverter graph with
// complemented edges: the mapper's subject graph. Every internal node is a
// 2-input AND; inversion lives on edges as the low bit of a literal.
// Construction folds constants and identities (AND(a,a) = a, AND(a,~a) = 0,
// AND(a,1) = a, AND(a,0) = 0) and structurally hashes AND nodes, so two
// syntactically different but structurally identical cones share one node.
// The cut enumerator and truth-table evaluator in cuts.go feed the mapper's
// NPN Boolean-matching backend.
package aig

// Lit is a literal: an edge to a node, possibly complemented. Bit 0 is the
// complement flag, the remaining bits the node id. Node 0 is the constant
// node, so ConstFalse = literal 0 and ConstTrue = literal 1.
type Lit uint32

// MakeLit builds a literal from a node id and a complement flag.
func MakeLit(node uint32, neg bool) Lit {
	l := Lit(node << 1)
	if neg {
		l |= 1
	}
	return l
}

// Node returns the node id the literal points at.
func (l Lit) Node() uint32 { return uint32(l >> 1) }

// Neg reports whether the literal is complemented.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// The two constant literals (both edges of node 0).
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindPI
	kindAnd
)

// Graph is a structurally hashed AIG. Node ids are dense and topologically
// ordered by construction: an AND's fanins always have smaller ids.
type Graph struct {
	kind   []nodeKind
	fanin0 []Lit
	fanin1 []Lit
	strash map[[2]Lit]Lit
	numPIs int
	dedup  int
}

// New returns an empty graph holding only the constant node.
func New() *Graph {
	return &Graph{
		kind:   []nodeKind{kindConst},
		fanin0: []Lit{0},
		fanin1: []Lit{0},
		strash: make(map[[2]Lit]Lit),
	}
}

// Len returns the number of nodes, including the constant and PIs.
func (g *Graph) Len() int { return len(g.kind) }

// NumAnds returns the number of AND nodes.
func (g *Graph) NumAnds() int { return len(g.kind) - 1 - g.numPIs }

// Dedup returns how many AND constructions were answered from the
// structural hash instead of creating a node.
func (g *Graph) Dedup() int { return g.dedup }

// AddPI appends a primary input and returns its positive literal.
func (g *Graph) AddPI() Lit {
	id := uint32(len(g.kind))
	g.kind = append(g.kind, kindPI)
	g.fanin0 = append(g.fanin0, 0)
	g.fanin1 = append(g.fanin1, 0)
	g.numPIs++
	return MakeLit(id, false)
}

// And returns a literal for a & b, folding constants and identities and
// reusing a structurally identical node when one exists.
func (g *Graph) And(a, b Lit) Lit {
	switch {
	case a == b:
		return a
	case a == b.Not():
		return ConstFalse
	case a == ConstFalse || b == ConstFalse:
		return ConstFalse
	case a == ConstTrue:
		return b
	case b == ConstTrue:
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if l, ok := g.strash[key]; ok {
		g.dedup++
		return l
	}
	id := uint32(len(g.kind))
	g.kind = append(g.kind, kindAnd)
	g.fanin0 = append(g.fanin0, a)
	g.fanin1 = append(g.fanin1, b)
	l := MakeLit(id, false)
	g.strash[key] = l
	return l
}
