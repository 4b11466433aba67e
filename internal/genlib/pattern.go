package genlib

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PatKind is a pattern node kind: the subject graph and patterns share the
// NAND2/INV basis of the paper's technology decomposition.
type PatKind int

const (
	// PatLeaf matches any subject node and binds it to a cell pin.
	PatLeaf PatKind = iota
	// PatInv matches an inverter subject node.
	PatInv
	// PatNand matches a 2-input NAND subject node.
	PatNand
)

// Pattern is a NAND2/INV tree representing one structural decomposition of
// a cell's function. Leaves carry the index of the cell pin bound there.
type Pattern struct {
	Kind PatKind
	L, R *Pattern // L only for PatInv; L and R for PatNand
	Pin  int      // for PatLeaf
}

// canon returns a canonical string with commutative NAND children ordered,
// used to deduplicate patterns.
func (p *Pattern) canon() string {
	switch p.Kind {
	case PatLeaf:
		return "p" + strconv.Itoa(p.Pin)
	case PatInv:
		return "i(" + p.L.canon() + ")"
	default:
		a, b := p.L.canon(), p.R.canon()
		if b < a {
			a, b = b, a
		}
		return "n(" + a + "," + b + ")"
	}
}

// String renders the pattern for diagnostics.
func (p *Pattern) String() string { return p.canon() }

// maxPatternInputs bounds the cells for which all structural decompositions
// are enumerated; (2k-3)!! grows quickly beyond this.
const maxPatternInputs = 6

// compilePatterns converts the cell expression into all non-isomorphic
// NAND2/INV pattern trees (associativity variants of k-ary AND/OR are
// enumerated; commutativity is handled by the matcher).
func (c *Cell) compilePatterns() error {
	if n := len(c.Expr.Vars()); n > maxPatternInputs {
		return fmt.Errorf("cell has %d inputs; pattern enumeration capped at %d", n, maxPatternInputs)
	}
	pinIndex := make(map[string]int, len(c.Pins))
	for i := range c.Pins {
		pinIndex[c.Pins[i].Name] = i
	}
	pats, err := patternsOf(c.Expr, pinIndex, false)
	if err != nil {
		return err
	}
	// Fully symmetric cells (NANDn, NORn, ...) accept any pin permutation,
	// so leaf labelings are redundant: canonical DFS relabeling collapses
	// the (2n-3)!! labeled shapes to the handful of unlabeled ones
	// (6 for n=6), which keeps matching affordable.
	symmetric := c.isFullySymmetric()
	seen := map[string]bool{}
	c.Patterns = c.Patterns[:0]
	for _, p := range pats {
		if p.Kind == PatLeaf {
			// A pure wire cell (buffer) has no mappable structure.
			continue
		}
		if symmetric && leafCount(p) == c.NumInputs() {
			// Relabeling is only valid when each pin appears exactly once
			// (leaf-DAG patterns like XOR repeat pins and must keep their
			// sharing structure).
			next := 0
			relabelLeaves(p, &next)
		}
		key := p.canon()
		if !seen[key] {
			seen[key] = true
			c.Patterns = append(c.Patterns, p)
		}
	}
	if len(c.Patterns) == 0 {
		return fmt.Errorf("cell %s compiles to no patterns (buffer cells cannot be matched)", c.Name)
	}
	sort.SliceStable(c.Patterns, func(a, b int) bool {
		return strings.Compare(c.Patterns[a].canon(), c.Patterns[b].canon()) < 0
	})
	return nil
}

// isFullySymmetric reports whether the cell function is invariant under
// every transposition of adjacent pins (which generates all permutations)
// and all pins share electrical parameters.
func (c *Cell) isFullySymmetric() bool {
	n := c.NumInputs()
	if n < 2 {
		return false
	}
	for i := 1; i < n; i++ {
		if c.Pins[i] != c.Pins[0] && !samePinParams(c.Pins[i], c.Pins[0]) {
			return false
		}
	}
	assign := map[string]bool{}
	for bits := 0; bits < 1<<n; bits++ {
		for i := 0; i < n; i++ {
			assign[c.Pins[i].Name] = bits>>i&1 != 0
		}
		base := c.Expr.Eval(assign)
		for i := 0; i+1 < n; i++ {
			a, b := c.Pins[i].Name, c.Pins[i+1].Name
			assign[a], assign[b] = assign[b], assign[a]
			if c.Expr.Eval(assign) != base {
				return false
			}
			assign[a], assign[b] = assign[b], assign[a]
		}
	}
	return true
}

func samePinParams(a, b Pin) bool {
	return a.Phase == b.Phase && a.Load == b.Load && a.MaxLoad == b.MaxLoad &&
		a.Block == b.Block && a.Drive == b.Drive
}

// leafCount returns the number of leaves in the pattern.
func leafCount(p *Pattern) int {
	switch p.Kind {
	case PatLeaf:
		return 1
	case PatInv:
		return leafCount(p.L)
	default:
		return leafCount(p.L) + leafCount(p.R)
	}
}

// relabelLeaves rewrites leaf pin indices in DFS order (valid only for
// fully symmetric cells whose patterns bind each pin exactly once).
func relabelLeaves(p *Pattern, next *int) {
	switch p.Kind {
	case PatLeaf:
		p.Pin = *next
		*next++
	case PatInv:
		relabelLeaves(p.L, next)
	default:
		relabelLeaves(p.L, next)
		relabelLeaves(p.R, next)
	}
}

// patternsOf returns all NAND2/INV trees computing e (or its complement
// when negated is true) with leaves bound to pins.
func patternsOf(e *Expr, pinIndex map[string]int, negated bool) ([]*Pattern, error) {
	switch e.Op {
	case OpVar:
		idx, ok := pinIndex[e.Var]
		if !ok {
			return nil, fmt.Errorf("expression variable %s has no pin", e.Var)
		}
		leaf := &Pattern{Kind: PatLeaf, Pin: idx}
		if negated {
			return []*Pattern{{Kind: PatInv, L: leaf}}, nil
		}
		return []*Pattern{leaf}, nil
	case OpNot:
		return patternsOf(e.Kids[0], pinIndex, !negated)
	case OpAnd, OpOr:
		return opPatterns(e, pinIndex, negated)
	}
	return nil, fmt.Errorf("unknown expression operator %d", e.Op)
}

// opPatterns enumerates all binary association trees over the k-ary AND/OR
// node's children and converts each AND/OR pair into the NAND/INV basis:
//
//	AND(x,y)      = INV(NAND(x, y))      NAND(x,y)    when complemented
//	OR(x,y)       = NAND(!x, !y)         INV(NAND(!x, !y)) when complemented
func opPatterns(e *Expr, pinIndex map[string]int, negated bool) ([]*Pattern, error) {
	// For AND we need positive-phase children; for OR negative-phase.
	childNeg := e.Op == OpOr
	childPats := make([][]*Pattern, len(e.Kids))
	for i, k := range e.Kids {
		ps, err := patternsOf(k, pinIndex, childNeg)
		if err != nil {
			return nil, err
		}
		childPats[i] = ps
	}
	groups := groupTrees(len(e.Kids))
	var out []*Pattern
	for _, g := range groups {
		built := buildGroup(g, childPats, e.Op)
		for _, root := range built {
			// root is currently the NAND form: NAND(children...) for AND,
			// NAND(!children...) for OR. Complementing adds/removes an INV.
			andPhaseNeg := e.Op == OpAnd && negated || e.Op == OpOr && !negated
			if andPhaseNeg {
				out = append(out, root)
			} else {
				out = append(out, &Pattern{Kind: PatInv, L: root})
			}
		}
	}
	return out, nil
}

// groupTree is a binary association tree over child indices.
type groupTree struct {
	leaf int // child index, or -1
	l, r *groupTree
}

// groupTrees enumerates all binary association trees over k children.
func groupTrees(k int) []*groupTree {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return groupTreesOf(idx)
}

func groupTreesOf(idx []int) []*groupTree {
	if len(idx) == 1 {
		return []*groupTree{{leaf: idx[0]}}
	}
	var out []*groupTree
	// Split into two non-empty subsets; fix idx[0] on the left to avoid
	// mirror duplicates (the matcher handles commutativity anyway).
	n := len(idx)
	for mask := 0; mask < 1<<(n-1); mask++ {
		var left, right []int
		left = append(left, idx[0])
		for b := 1; b < n; b++ {
			if mask>>(b-1)&1 == 1 {
				left = append(left, idx[b])
			} else {
				right = append(right, idx[b])
			}
		}
		if len(right) == 0 {
			continue
		}
		for _, lt := range groupTreesOf(left) {
			for _, rt := range groupTreesOf(right) {
				out = append(out, &groupTree{leaf: -1, l: lt, r: rt})
			}
		}
	}
	return out
}

// buildGroup converts one association tree into NAND/INV patterns, taking
// the cross product of child pattern alternatives. The returned patterns
// compute the *complement* of the k-ary op over positive-phase (AND) or
// negative-phase (OR) children, i.e. the natural NAND form.
func buildGroup(g *groupTree, childPats [][]*Pattern, op Op) []*Pattern {
	type phased struct {
		pos []*Pattern // patterns computing the group's value v
		neg []*Pattern // patterns computing !v
	}
	var rec func(t *groupTree) phased
	rec = func(t *groupTree) phased {
		if t.leaf >= 0 {
			// childPats already hold the phase needed at the leaves of the
			// op's NAND form (positive for AND, negative for OR): treat them
			// as "pos" here; "neg" adds an inverter.
			pos := childPats[t.leaf]
			neg := make([]*Pattern, len(pos))
			for i, p := range pos {
				if p.Kind == PatInv {
					neg[i] = p.L // collapse double inversion
				} else {
					neg[i] = &Pattern{Kind: PatInv, L: p}
				}
			}
			return phased{pos: pos, neg: neg}
		}
		lp, rp := rec(t.l), rec(t.r)
		// Group value v = AND(l, r) in the op's leaf phase; its NAND form is
		// neg = NAND(l_pos, r_pos), pos = INV(neg).
		var neg []*Pattern
		for _, a := range lp.pos {
			for _, b := range rp.pos {
				neg = append(neg, &Pattern{Kind: PatNand, L: a, R: b})
			}
		}
		pos := make([]*Pattern, len(neg))
		for i, p := range neg {
			pos[i] = &Pattern{Kind: PatInv, L: p}
		}
		return phased{pos: pos, neg: neg}
	}
	res := rec(g)
	_ = op
	return res.neg
}
