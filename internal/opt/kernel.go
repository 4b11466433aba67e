package opt

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"powermap/internal/network"
	"powermap/internal/sop"
)

// Kernel extraction: the multi-cube half of fast_extract. A kernel of an
// SOP f is a cube-free quotient of f by a cube; extracting a kernel shared
// by several nodes (or used several times in one node) as a new node
// removes duplicated literals. Together with the common-cube extraction in
// ExtractCubes this reproduces the character of the SIS rugged front end
// the paper starts from.

// gLit is a literal over a global signal: a driving node and a phase.
type gLit struct {
	node *network.Node
	neg  bool
}

func (l gLit) key() string {
	if l.neg {
		return "!" + l.node.Name
	}
	return l.node.Name
}

// gCube is a product of global literals, sorted by key.
type gCube []gLit

func (c gCube) key() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.key()
	}
	return strings.Join(parts, "*")
}

// gCover is a set of global cubes, sorted by cube key — the canonical form
// used to match divisors across nodes.
type gCover []gCube

func (f gCover) key() string {
	parts := make([]string, len(f))
	for i, c := range f {
		parts[i] = c.key()
	}
	return strings.Join(parts, " + ")
}

func (f gCover) numLiterals() int {
	n := 0
	for _, c := range f {
		n += len(c)
	}
	return n
}

func sortGCover(f gCover) gCover {
	for _, c := range f {
		sort.Slice(c, func(i, j int) bool { return c[i].key() < c[j].key() })
	}
	sort.Slice(f, func(i, j int) bool { return f[i].key() < f[j].key() })
	return f
}

// globalCover converts a node's local SOP into global-literal form.
func globalCover(n *network.Node) gCover {
	out := make(gCover, 0, len(n.Func.Cubes))
	for _, c := range n.Func.Cubes {
		var gc gCube
		for v, l := range c {
			if l != sop.DC {
				gc = append(gc, gLit{node: n.Fanin[v], neg: l == sop.Neg})
			}
		}
		out = append(out, gc)
	}
	return sortGCover(out)
}

// cubeContains reports whether super contains every literal of sub.
func cubeContains(super, sub gCube) bool {
	for _, l := range sub {
		found := false
		for _, s := range super {
			if s == l {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// cubeMinus removes sub's literals from super.
func cubeMinus(super, sub gCube) gCube {
	var out gCube
	for _, s := range super {
		drop := false
		for _, l := range sub {
			if s == l {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, s)
		}
	}
	return out
}

// commonCube returns the cube of literals shared by every cube of f.
func commonCube(f gCover) gCube {
	if len(f) == 0 {
		return nil
	}
	var common gCube
	for _, l := range f[0] {
		inAll := true
		for _, c := range f[1:] {
			if !cubeContains(c, gCube{l}) {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, l)
		}
	}
	return common
}

// divideByCube returns the quotient f / c (cubes of f containing c, with
// c removed).
func divideByCube(f gCover, c gCube) gCover {
	var q gCover
	for _, fc := range f {
		if cubeContains(fc, c) {
			q = append(q, cubeMinus(fc, c))
		}
	}
	return q
}

// weakDivide computes the algebraic division f / d for a multi-cube
// divisor d: the intersection over d's cubes of the single-cube quotients.
// Returns the quotient (nil when empty).
func weakDivide(f gCover, d gCover) gCover {
	if len(d) == 0 {
		return nil
	}
	quotient := divideByCube(f, d[0])
	for _, dc := range d[1:] {
		next := divideByCube(f, dc)
		quotient = intersectCovers(quotient, next)
		if len(quotient) == 0 {
			return nil
		}
	}
	return quotient
}

func intersectCovers(a, b gCover) gCover {
	keys := map[string]bool{}
	for _, c := range b {
		keys[sortedCube(c).key()] = true
	}
	var out gCover
	for _, c := range a {
		if keys[sortedCube(c).key()] {
			out = append(out, c)
		}
	}
	return out
}

func sortedCube(c gCube) gCube {
	d := append(gCube(nil), c...)
	sort.Slice(d, func(i, j int) bool { return d[i].key() < d[j].key() })
	return d
}

// kernelsOf enumerates the kernels of f (cube-free quotients by cubes),
// including f itself when cube-free, bounded by maxKernels.
func kernelsOf(f gCover, maxKernels int) []gCover {
	seen := map[string]bool{}
	var out []gCover
	var rec func(g gCover)
	rec = func(g gCover) {
		if len(out) >= maxKernels {
			return
		}
		// Make cube-free.
		if cc := commonCube(g); len(cc) > 0 {
			g = divideByCube(g, cc)
		}
		if len(g) < 2 {
			return
		}
		g = sortGCover(g)
		k := g.key()
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, g)
		// Recurse on literal quotients with ≥ 2 occurrences.
		counts := map[string]gLit{}
		tally := map[string]int{}
		for _, c := range g {
			for _, l := range c {
				counts[l.key()] = l
				tally[l.key()]++
			}
		}
		keys := make([]string, 0, len(tally))
		for lk, n := range tally {
			if n >= 2 {
				keys = append(keys, lk)
			}
		}
		sort.Strings(keys)
		for _, lk := range keys {
			rec(divideByCube(g, gCube{counts[lk]}))
		}
	}
	rec(f)
	return out
}

// maxKernelsPerNode bounds enumeration; node functions are small after
// simplify, so this is rarely hit.
const maxKernelsPerNode = 40

// ExtractKernels greedily extracts the most valuable multi-cube divisor
// shared across the network (or used repeatedly inside one node), creating
// one new node per extraction. Returns the number of extractions.
func ExtractKernels(ctx context.Context, nw *network.Network, maxIters int) (int, error) {
	extracted := 0
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return extracted, fmt.Errorf("opt: %w", err)
		}
		if !extractBestKernel(nw) {
			break
		}
		extracted++
	}
	return extracted, nil
}

func extractBestKernel(nw *network.Network) bool {
	// Gather kernel candidates with their uses.
	type use struct {
		node     *network.Node
		quotient gCover
	}
	candidates := map[string]gCover{}
	uses := map[string][]use{}
	for _, n := range nw.Nodes {
		if n.Kind != network.Internal || len(n.Func.Cubes) < 2 {
			continue
		}
		f := globalCover(n)
		for _, k := range kernelsOf(f, maxKernelsPerNode) {
			key := k.key()
			if _, ok := candidates[key]; !ok {
				candidates[key] = k
			}
			q := weakDivide(f, k)
			if len(q) == 0 {
				continue
			}
			uses[key] = append(uses[key], use{node: n, quotient: q})
		}
	}
	// Value = saved literals. In the algebraic model the d·q part of f
	// holds |d|·lits(q) + |q|·lits(d) literals; rewritten as d_var·q it
	// holds lits(q) + |q|, so each use saves
	// (|d|−1)·lits(q) + |q|·(lits(d)−1); the new node itself costs lits(d).
	bestKey := ""
	bestValue := 0
	keys := make([]string, 0, len(candidates))
	for k := range candidates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		d := candidates[key]
		ld := d.numLiterals()
		value := -ld
		for _, u := range uses[key] {
			value += (len(d)-1)*u.quotient.numLiterals() + len(u.quotient)*(ld-1)
		}
		if value > bestValue {
			bestValue, bestKey = value, key
		}
	}
	if bestKey == "" {
		return false
	}
	d := candidates[bestKey]
	dNode := materializeGCover(nw, d)
	for _, u := range uses[bestKey] {
		substituteDivisor(nw, u.node, d, dNode)
	}
	return true
}

// materializeGCover creates a new node computing the divisor.
func materializeGCover(nw *network.Network, d gCover) *network.Node {
	var fanins []*network.Node
	index := map[*network.Node]int{}
	for _, c := range d {
		for _, l := range c {
			if _, ok := index[l.node]; !ok {
				index[l.node] = len(fanins)
				fanins = append(fanins, l.node)
			}
		}
	}
	f := sop.NewCover(len(fanins))
	for _, c := range d {
		cube := sop.NewCube(len(fanins))
		for _, l := range c {
			if l.neg {
				cube[index[l.node]] = sop.Neg
			} else {
				cube[index[l.node]] = sop.Pos
			}
		}
		f.AddCube(cube)
	}
	f.Minimize()
	return nw.AddNode(nw.FreshName("kx"), fanins, f)
}

// substituteDivisor rewrites n as d_var·(f/d) + remainder.
func substituteDivisor(nw *network.Network, n *network.Node, d gCover, dNode *network.Node) {
	f := globalCover(n)
	q := weakDivide(f, d)
	if len(q) == 0 {
		return
	}
	// Remainder: cubes of f not generated by d·q.
	generated := map[string]bool{}
	for _, qc := range q {
		for _, dc := range d {
			merged := append(append(gCube(nil), qc...), dc...)
			generated[sortedCube(merged).key()] = true
		}
	}
	var remainder gCover
	for _, fc := range f {
		if !generated[sortedCube(fc).key()] {
			remainder = append(remainder, fc)
		}
	}
	// New fanin list: union of quotient/remainder signals plus dNode.
	var fanins []*network.Node
	index := map[*network.Node]int{}
	add := func(x *network.Node) int {
		if i, ok := index[x]; ok {
			return i
		}
		index[x] = len(fanins)
		fanins = append(fanins, x)
		return len(fanins) - 1
	}
	toCube := func(c gCube, width int, extra int) sop.Cube {
		cube := sop.NewCube(width)
		for _, l := range c {
			v := add(l.node)
			if l.neg {
				cube[v] = sop.Neg
			} else {
				cube[v] = sop.Pos
			}
		}
		if extra >= 0 {
			cube[extra] = sop.Pos
		}
		return cube
	}
	// First pass registers all signals so the width is known.
	for _, c := range q {
		for _, l := range c {
			add(l.node)
		}
	}
	for _, c := range remainder {
		for _, l := range c {
			add(l.node)
		}
	}
	dVar := add(dNode)
	width := len(fanins)
	out := sop.NewCover(width)
	for _, c := range q {
		out.AddCube(toCube(c, width, dVar))
	}
	for _, c := range remainder {
		out.AddCube(toCube(c, width, -1))
	}
	out.Minimize()
	nw.SetFunction(n, fanins, out)
}
