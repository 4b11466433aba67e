package aig

import (
	"fmt"
	"sort"

	"powermap/internal/npn"
)

// Cut is a k-feasible cut of an AND node: a set of leaf node ids (ascending)
// such that every path from the node to a PI passes through a leaf. The
// node's function over the leaf variables is the candidate for Boolean
// matching.
type Cut struct {
	Leaves []uint32
}

// EnumerateCuts computes, for every node, its priority cuts: all merged
// fanin cuts with at most k leaves, superset-dominated cuts removed, kept
// in deterministic (size, lexicographic) order and truncated to limit, plus
// the trivial {node} cut last. Smaller cuts sort first, so the trivial
// fanin cuts that guarantee a library match always survive pruning.
// The result is indexed by node id.
func (g *Graph) EnumerateCuts(k, limit int) [][]Cut {
	cuts := make([][]Cut, g.Len())
	for v := uint32(0); int(v) < g.Len(); v++ {
		switch g.kind[v] {
		case kindConst:
			cuts[v] = []Cut{{}}
		case kindPI:
			cuts[v] = []Cut{{Leaves: []uint32{v}}}
		case kindAnd:
			f0, f1 := g.fanin0[v], g.fanin1[v]
			var merged []Cut
			seen := make(map[string]bool)
			for _, c0 := range cuts[f0.Node()] {
				for _, c1 := range cuts[f1.Node()] {
					u, ok := mergeLeaves(c0.Leaves, c1.Leaves, k)
					if !ok {
						continue
					}
					key := leafKey(u)
					if seen[key] {
						continue
					}
					seen[key] = true
					merged = append(merged, Cut{Leaves: u})
				}
			}
			merged = filterDominated(merged)
			sort.Slice(merged, func(i, j int) bool {
				return leafLess(merged[i].Leaves, merged[j].Leaves)
			})
			if len(merged) >= limit {
				merged = merged[:limit-1]
			}
			merged = append(merged, Cut{Leaves: []uint32{v}})
			cuts[v] = merged
		}
	}
	return cuts
}

// mergeLeaves unions two ascending leaf lists, rejecting unions larger
// than k.
func mergeLeaves(a, b []uint32, k int) ([]uint32, bool) {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > k {
			return nil, false
		}
	}
	return out, true
}

func leafKey(leaves []uint32) string {
	b := make([]byte, 0, len(leaves)*4)
	for _, l := range leaves {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

func leafLess(a, b []uint32) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// filterDominated drops any cut whose leaves are a strict superset of
// another cut's: the subset cut covers at least as much logic with fewer
// inputs.
func filterDominated(cs []Cut) []Cut {
	out := cs[:0]
	for i, c := range cs {
		dominated := false
		for j, d := range cs {
			if i == j || len(d.Leaves) > len(c.Leaves) {
				continue
			}
			if len(d.Leaves) == len(c.Leaves) && j > i {
				continue // equal-size duplicates were already deduped
			}
			if isSubset(d.Leaves, c.Leaves) && len(d.Leaves) < len(c.Leaves) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// isSubset reports a ⊆ b for ascending lists.
func isSubset(a, b []uint32) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// CutTT evaluates the function of node root over the cut's leaves as a
// truth table (leaf i = input variable i). The cut must cover the cone:
// reaching a PI that is not a leaf is an error.
func (g *Graph) CutTT(root uint32, leaves []uint32) (uint64, error) {
	n := len(leaves)
	if n > npn.Max {
		return 0, fmt.Errorf("aig: cut with %d leaves exceeds %d-input truth tables", n, npn.Max)
	}
	tts := make(map[uint32]uint64, 2*n)
	for i, leaf := range leaves {
		tts[leaf] = npn.Var(i, n)
	}
	var eval func(v uint32) (uint64, error)
	eval = func(v uint32) (uint64, error) {
		if tt, ok := tts[v]; ok {
			return tt, nil
		}
		switch g.kind[v] {
		case kindConst:
			return 0, nil
		case kindPI:
			return 0, fmt.Errorf("aig: cut does not cover PI node %d", v)
		}
		f0, f1 := g.fanin0[v], g.fanin1[v]
		a, err := eval(f0.Node())
		if err != nil {
			return 0, err
		}
		if f0.Neg() {
			a = ^a
		}
		b, err := eval(f1.Node())
		if err != nil {
			return 0, err
		}
		if f1.Neg() {
			b = ^b
		}
		tt := a & b & npn.Mask(n)
		tts[v] = tt
		return tt, nil
	}
	return eval(root)
}
