// Package opt implements the light technology-independent optimization
// used as this repository's stand-in for the SIS "rugged" script, which the
// paper runs before technology decomposition (Section 4). The passes are:
//
//   - Sweep: constant propagation, buffer/inverter collapsing, removal of
//     dangling logic;
//   - Simplify: per-node two-level cleanup (single-cube containment and
//     distance-1 merging);
//   - Eliminate: collapsing low-value nodes into their fanouts (the SIS
//     "eliminate" with a literal-growth threshold);
//   - ExtractCubes: greedy common-cube extraction across nodes, a reduced
//     fast_extract that leaves networks with the same "small simple
//     nodes" character the paper attributes to its starting points;
//   - ExtractKernels: greedy multi-cube (kernel) extraction, the other
//     half of fast_extract.
//
// Optimize runs them as a fixed script. All passes preserve every primary
// output function exactly (tested with BDD equivalence).
package opt

import (
	"context"
	"fmt"
	"sort"

	"powermap/internal/network"
	"powermap/internal/sop"
)

// The script's fixed settings: Eliminate collapses only nodes whose
// literal-count growth is at most eliminateThreshold, and each extraction
// pass stops after maxExtractions divisors.
const (
	eliminateThreshold = 0
	maxExtractions     = 100
)

// Options tunes the optimization script.
type Options struct {
	// MaxNodeLiterals skips collapsing into nodes that would grow beyond
	// this literal count; 0 means 24.
	MaxNodeLiterals int
	// StrongSimplify applies the Espresso-style expand/irredundant pass to
	// small nodes instead of the cheap containment pass. Off by default:
	// maximally simplified nodes leave the power-aware decomposition less
	// freedom, shifting the Methods II/I comparison (see EXPERIMENTS.md).
	StrongSimplify bool
}

// Stats reports what the script changed.
type Stats struct {
	ConstantsPropagated int
	BuffersCollapsed    int
	NodesEliminated     int
	CubesExtracted      int
	KernelsExtracted    int
	LiteralsBefore      int
	LiteralsAfter       int
}

// Optimize runs the full script on the network in place. The script
// mutates nw as it goes, but every elimination and extraction leaves the
// network consistent, so a ctx expiry, which the passes check once per
// step, aborts with nw still usable.
func Optimize(ctx context.Context, nw *network.Network, opt Options) (Stats, error) {
	if opt.MaxNodeLiterals == 0 {
		opt.MaxNodeLiterals = 24
	}
	var st Stats
	st.LiteralsBefore = nw.Stats().Literals
	for pass := 0; pass < 4; pass++ {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("opt: %w", err)
		}
		changed := false
		c, b, err := Sweep(nw)
		if err != nil {
			return st, err
		}
		st.ConstantsPropagated += c
		st.BuffersCollapsed += b
		changed = changed || c > 0 || b > 0
		if opt.StrongSimplify {
			SimplifyStrong(nw)
		} else {
			Simplify(nw)
		}
		e, err := Eliminate(ctx, nw, eliminateThreshold, opt.MaxNodeLiterals)
		st.NodesEliminated += e
		if err != nil {
			return st, err
		}
		changed = changed || e > 0
		x, err := ExtractCubes(ctx, nw, maxExtractions)
		st.CubesExtracted += x
		if err != nil {
			return st, err
		}
		changed = changed || x > 0
		kx, err := ExtractKernels(ctx, nw, maxExtractions)
		st.KernelsExtracted += kx
		if err != nil {
			return st, err
		}
		changed = changed || kx > 0
		if !changed {
			break
		}
	}
	if _, _, err := Sweep(nw); err != nil {
		return st, err
	}
	if opt.StrongSimplify {
		SimplifyStrong(nw)
	} else {
		Simplify(nw)
	}
	nw.Sweep()
	st.LiteralsAfter = nw.Stats().Literals
	return st, nw.Check()
}

// Simplify minimizes every node cover in place with the cheap containment
// and distance-1 pass.
func Simplify(nw *network.Network) {
	for _, n := range nw.Nodes {
		if n.Kind == network.Internal {
			n.Func.Minimize()
		}
	}
}

// SimplifyStrong minimizes small nodes with the Espresso-style
// expand/irredundant pass (the "node simplification" direction of the
// paper's Shen-et-al. reference), falling back to the cheap pass for wide
// nodes (MinimizeStrong complements the cover).
func SimplifyStrong(nw *network.Network) {
	const strongLimit = 10
	for _, n := range nw.Nodes {
		if n.Kind != network.Internal {
			continue
		}
		if n.Func.NumVars <= strongLimit {
			n.Func.MinimizeStrong()
		} else {
			n.Func.Minimize()
		}
	}
}

// Sweep propagates constants and collapses buffers and inverter-feeding
// literals, returning (constants propagated, buffers collapsed).
func Sweep(nw *network.Network) (consts, buffers int, err error) {
	for {
		changed := false
		for _, n := range append([]*network.Node(nil), nw.Nodes...) {
			if n.Kind != network.Internal && n.Kind != network.Constant {
				continue
			}
			if nw.NodeByName(n.Name) != n {
				continue // already deleted this round
			}
			n.Func.Minimize()
			switch {
			case n.Kind == network.Constant || n.Func.IsZero() || n.Func.IsOne():
				if propagateConstant(nw, n) {
					consts++
					changed = true
				}
				// Demote to a true constant source so downstream passes
				// (decomposition, mapping) treat it like an input tied to
				// VDD/GND rather than a logic node.
				if n.Kind == network.Internal {
					value := n.Func.IsOne()
					f := sop.Zero(0)
					if value {
						f = sop.One(0)
					}
					nw.SetFunction(n, nil, f)
					n.Kind = network.Constant
					changed = true
				}
			case isBufferNode(n):
				if collapseWire(nw, n, false) {
					buffers++
					changed = true
				}
			case isInvNode(n):
				if collapseWire(nw, n, true) {
					buffers++
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	nw.Sweep()
	return consts, buffers, nw.Check()
}

func isBufferNode(n *network.Node) bool {
	return len(n.Fanin) == 1 && len(n.Func.Cubes) == 1 && n.Func.Cubes[0][0] == sop.Pos
}

func isInvNode(n *network.Node) bool {
	return len(n.Fanin) == 1 && len(n.Func.Cubes) == 1 && n.Func.Cubes[0][0] == sop.Neg
}

// propagateConstant substitutes a constant node's value into its fanouts by
// cofactoring their covers. Nodes driving outputs stay (the constant value
// must still be produced). Returns whether anything changed.
func propagateConstant(nw *network.Network, n *network.Node) bool {
	value := n.Func.IsOne()
	changed := false
	for _, fo := range append([]*network.Node(nil), n.Fanout...) {
		for {
			v := fo.FaninIndex(n)
			if v < 0 {
				break
			}
			cofactored := fo.Func.Cofactor(v, value)
			fanins := append([]*network.Node(nil), fo.Fanin...)
			fanins = append(fanins[:v], fanins[v+1:]...)
			nw.SetFunction(fo, fanins, dropVar(cofactored, v))
			changed = true
		}
	}
	return changed
}

// dropVar removes variable v (already don't-care in every cube) from the
// cover, shrinking the variable space by one.
func dropVar(f *sop.Cover, v int) *sop.Cover {
	g := sop.NewCover(f.NumVars - 1)
	for _, c := range f.Cubes {
		nc := make(sop.Cube, 0, len(c)-1)
		nc = append(nc, c[:v]...)
		nc = append(nc, c[v+1:]...)
		g.Cubes = append(g.Cubes, nc)
	}
	return g
}

// collapseWire substitutes a buffer (or inverter) node into its fanouts.
// Inverter substitution flips the phase of the corresponding literal in
// every fanout cube. Output-driving wires are preserved. Returns whether
// the node was fully collapsed out of all fanouts.
func collapseWire(nw *network.Network, n *network.Node, invert bool) bool {
	src := n.Fanin[0]
	changed := false
	for _, fo := range append([]*network.Node(nil), n.Fanout...) {
		if fo.FaninIndex(src) >= 0 {
			// The fanout already reads src directly: substituting would
			// create a duplicate fanin column; merge via full substitution.
			if substituteLiteral(nw, fo, n, src, invert) {
				changed = true
			}
			continue
		}
		v := fo.FaninIndex(n)
		if v < 0 {
			continue
		}
		if invert {
			flipVar(fo.Func, v)
		}
		nw.ReplaceFanin(fo, n, src)
		changed = true
	}
	return changed
}

// substituteLiteral rewrites fo's cover so that variable refs to wire go
// through the existing src column instead (phase-adjusted), then drops the
// wire fanin.
func substituteLiteral(nw *network.Network, fo, wire, src *network.Node, invert bool) bool {
	vWire := fo.FaninIndex(wire)
	vSrc := fo.FaninIndex(src)
	if vWire < 0 || vSrc < 0 {
		return false
	}
	out := sop.NewCover(fo.Func.NumVars)
	for _, c := range fo.Func.Cubes {
		nc := c.Clone()
		lit := nc[vWire]
		if lit != sop.DC {
			want := lit
			if invert {
				if want == sop.Pos {
					want = sop.Neg
				} else {
					want = sop.Pos
				}
			}
			if nc[vSrc] != sop.DC && nc[vSrc] != want {
				continue // cube requires src and !src simultaneously: empty
			}
			nc[vSrc] = want
			nc[vWire] = sop.DC
		}
		out.Cubes = append(out.Cubes, nc)
	}
	fanins := append([]*network.Node(nil), fo.Fanin...)
	fanins = append(fanins[:vWire], fanins[vWire+1:]...)
	nw.SetFunction(fo, fanins, dropVar(out, vWire))
	return true
}

// flipVar complements the phase of variable v in every cube.
func flipVar(f *sop.Cover, v int) {
	for _, c := range f.Cubes {
		switch c[v] {
		case sop.Pos:
			c[v] = sop.Neg
		case sop.Neg:
			c[v] = sop.Pos
		}
	}
}

// Eliminate collapses nodes whose substitution into all fanouts grows the
// network by at most threshold literals (and keeps every affected fanout
// under maxNodeLiterals). Each step collapses the first node of nw.Nodes
// with the least value. Returns the number of nodes eliminated.
//
// Values are memoized for the call. A node's value reads only its own
// cover and fanins and its fanouts' covers and fanins, so collapsing c
// into its fanouts F can change only the values of c, of each member of F,
// and of each member's fanins after the collapse; exactly those entries
// are dropped, and every pick equals a full recompute's.
func Eliminate(ctx context.Context, nw *network.Network, threshold, maxNodeLiterals int) (int, error) {
	e := eliminator{nw: nw, threshold: threshold, maxNodeLiterals: maxNodeLiterals,
		memo: map[*network.Node]elimValue{}}
	eliminated := 0
	for {
		if err := ctx.Err(); err != nil {
			return eliminated, fmt.Errorf("opt: %w", err)
		}
		c := e.pick()
		if c == nil {
			break
		}
		if err := e.collapse(c); err != nil {
			return eliminated, err
		}
		eliminated++
	}
	nw.Sweep()
	return eliminated, nw.Check()
}

// eliminator holds one Eliminate call's settings and value memo.
type eliminator struct {
	nw                         *network.Network
	threshold, maxNodeLiterals int
	memo                       map[*network.Node]elimValue
}

type elimValue struct {
	value int
	ok    bool
}

// pick returns the first node of least value at most the threshold, or nil.
func (e *eliminator) pick() *network.Node {
	var best *network.Node
	bestValue := e.threshold + 1
	for _, n := range e.nw.Nodes {
		if n.Kind != network.Internal || len(n.Fanout) == 0 || drivesOutput(e.nw, n) {
			continue
		}
		v, hit := e.memo[n]
		if !hit {
			v.value, v.ok = eliminationValue(n, e.maxNodeLiterals)
			e.memo[n] = v
		}
		if v.ok && v.value < bestValue {
			bestValue = v.value
			best = n
		}
	}
	return best
}

// collapse substitutes c into its fanouts and drops the memo entries the
// substitution can change.
func (e *eliminator) collapse(c *network.Node) error {
	fanouts := append([]*network.Node(nil), c.Fanout...)
	if err := collapseInto(e.nw, c); err != nil {
		return err
	}
	delete(e.memo, c)
	for _, fo := range fanouts {
		delete(e.memo, fo)
		for _, fi := range fo.Fanin {
			delete(e.memo, fi)
		}
	}
	return nil
}

func drivesOutput(nw *network.Network, n *network.Node) bool {
	for _, o := range nw.Outputs {
		if o.Driver == n {
			return true
		}
	}
	return false
}

// eliminationValue estimates the literal growth of collapsing n into all
// its fanouts (the SIS node value). It performs the substitutions on
// scratch copies; ok=false when any fanout would exceed maxNodeLiterals or
// the substitution is structurally impossible.
func eliminationValue(n *network.Node, maxNodeLiterals int) (int, bool) {
	growth := -n.Func.NumLiterals()
	nc := n.Func.Complement()
	for _, fo := range n.Fanout {
		merged, err := substituted(fo, n, nc)
		if err != nil {
			return 0, false
		}
		if merged.NumLiterals() > maxNodeLiterals {
			return 0, false
		}
		growth += merged.NumLiterals() - fo.Func.NumLiterals()
	}
	return growth, true
}

// substituted returns fo's cover with node n's function substituted for its
// variable, over the merged fanin space (fo.Fanin \ {n}) ∪ n.Fanin; nc is
// n's complement.
func substituted(fo, n *network.Node, nc *sop.Cover) (*sop.Cover, error) {
	v := fo.FaninIndex(n)
	if v < 0 {
		return nil, fmt.Errorf("opt: %s does not read %s", fo.Name, n.Name)
	}
	// Merged fanin list.
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
	for i, f := range fo.Fanin {
		if i != v {
			add(f)
		}
	}
	for _, f := range n.Fanin {
		add(f)
	}
	remapFo := func(c sop.Cube) sop.Cube {
		nc := sop.NewCube(len(fanins))
		for i, l := range c {
			if i == v || l == sop.DC {
				continue
			}
			nc[index[fo.Fanin[i]]] = l
		}
		return nc
	}
	remapN := func(c sop.Cube) sop.Cube {
		nc := sop.NewCube(len(fanins))
		for i, l := range c {
			if l != sop.DC {
				nc[index[n.Fanin[i]]] = l
			}
		}
		return nc
	}
	remapCover := func(f *sop.Cover, remap func(sop.Cube) sop.Cube) *sop.Cover {
		g := sop.NewCover(len(fanins))
		for _, c := range f.Cubes {
			g.Cubes = append(g.Cubes, remap(c))
		}
		return g
	}
	fv := remapCover(fo.Func.Cofactor(v, true), remapFo)
	fnv := remapCover(fo.Func.Cofactor(v, false), remapFo)
	g := remapCover(n.Func, remapN)
	gc := remapCover(nc, remapN)
	merged := g.And(fv).Or(gc.And(fnv))
	merged.Minimize()
	return merged, nil
}

// collapseInto substitutes n into every fanout and leaves n for sweeping.
func collapseInto(nw *network.Network, n *network.Node) error {
	nc := n.Func.Complement()
	for _, fo := range append([]*network.Node(nil), n.Fanout...) {
		merged, err := substituted(fo, n, nc)
		if err != nil {
			return err
		}
		v := fo.FaninIndex(n)
		var fanins []*network.Node
		seen := map[*network.Node]bool{}
		for i, f := range fo.Fanin {
			if i != v && !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		for _, f := range n.Fanin {
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		if merged.NumVars != len(fanins) {
			return fmt.Errorf("opt: substitution width mismatch at %s", fo.Name)
		}
		nw.SetFunction(fo, fanins, merged)
	}
	return nil
}

// ExtractCubes greedily extracts common two-literal cubes shared by at
// least three cubes across the network, creating a new node per divisor.
// Returns the number of extractions performed.
func ExtractCubes(ctx context.Context, nw *network.Network, maxIters int) (int, error) {
	extracted := 0
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return extracted, fmt.Errorf("opt: %w", err)
		}
		if !extractBestCube(nw) {
			break
		}
		extracted++
	}
	return extracted, nil
}

// litKey identifies a literal globally: a driving node and a phase.
type litKey struct {
	node *network.Node
	neg  bool
}

type pairKey struct{ a, b litKey }

func orderedPair(a, b litKey) pairKey {
	if a.node.Name > b.node.Name || (a.node.Name == b.node.Name && a.neg && !b.neg) {
		a, b = b, a
	}
	return pairKey{a, b}
}

// extractBestCube finds the most common 2-literal cube and factors it out.
func extractBestCube(nw *network.Network) bool {
	counts := map[pairKey]int{}
	for _, n := range nw.Nodes {
		if n.Kind != network.Internal {
			continue
		}
		for _, c := range n.Func.Cubes {
			lits := cubeLits(n, c)
			for i := 0; i < len(lits); i++ {
				for j := i + 1; j < len(lits); j++ {
					counts[orderedPair(lits[i], lits[j])]++
				}
			}
		}
	}
	var best pairKey
	bestCount := 2 // need ≥3 occurrences to save literals
	found := false
	keys := make([]pairKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return pairLess(keys[i], keys[j]) })
	for _, k := range keys {
		if counts[k] > bestCount {
			bestCount = counts[k]
			best = k
			found = true
		}
	}
	if !found {
		return false
	}
	// Create the divisor node d = l1 · l2.
	div := sop.NewCover(2)
	cube := sop.NewCube(2)
	cube[0] = phaseLit(best.a.neg)
	cube[1] = phaseLit(best.b.neg)
	div.AddCube(cube)
	d := nw.AddNode(nw.FreshName("fx"), []*network.Node{best.a.node, best.b.node}, div)
	// Substitute the divisor into every cube containing both literals.
	for _, n := range append([]*network.Node(nil), nw.Nodes...) {
		if n.Kind != network.Internal || n == d {
			continue
		}
		substituteCube(nw, n, best, d)
	}
	return true
}

func pairLess(x, y pairKey) bool {
	if x.a.node.Name != y.a.node.Name {
		return x.a.node.Name < y.a.node.Name
	}
	if x.a.neg != y.a.neg {
		return !x.a.neg
	}
	if x.b.node.Name != y.b.node.Name {
		return x.b.node.Name < y.b.node.Name
	}
	return !x.b.neg && y.b.neg
}

func phaseLit(neg bool) sop.Lit {
	if neg {
		return sop.Neg
	}
	return sop.Pos
}

func cubeLits(n *network.Node, c sop.Cube) []litKey {
	var out []litKey
	for v, l := range c {
		if l != sop.DC {
			out = append(out, litKey{node: n.Fanin[v], neg: l == sop.Neg})
		}
	}
	return out
}

// substituteCube rewrites n's cubes containing both literals of the pair to
// use divisor d instead.
func substituteCube(nw *network.Network, n *network.Node, pk pairKey, d *network.Node) {
	findVar := func(k litKey) int {
		for i, f := range n.Fanin {
			if f == k.node {
				return i
			}
		}
		return -1
	}
	va, vb := findVar(pk.a), findVar(pk.b)
	if va < 0 || vb < 0 || va == vb {
		return
	}
	la, lb := phaseLit(pk.a.neg), phaseLit(pk.b.neg)
	touched := false
	for _, c := range n.Func.Cubes {
		if c[va] == la && c[vb] == lb {
			touched = true
			break
		}
	}
	if !touched {
		return
	}
	// New fanin list: existing + d.
	fanins := append(append([]*network.Node(nil), n.Fanin...), d)
	out := sop.NewCover(len(fanins))
	for _, c := range n.Func.Cubes {
		nc := sop.NewCube(len(fanins))
		copy(nc, c)
		if c[va] == la && c[vb] == lb {
			nc[va], nc[vb] = sop.DC, sop.DC
			nc[len(fanins)-1] = sop.Pos
		}
		out.Cubes = append(out.Cubes, nc)
	}
	nw.SetFunction(n, fanins, out)
}
