package mapper

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"powermap/internal/aig"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/network"
	"powermap/internal/npn"
	"powermap/internal/obs"
)

const (
	// maxCutInputs bounds cut width: truth tables must fit one word.
	maxCutInputs = npn.Max
	// cutLimit is the per-node priority-cut budget. It must stay well
	// above the handful of 2-leaf cuts a node can have, so the
	// direct-fanin cut that guarantees a NAND2/INV match always survives.
	cutLimit = 16
	// maxAutomorphisms bounds the per-class automorphism enumeration.
	// Composing every automorphism with the canonicalizing transforms
	// reaches every input binding of a matched cell; symmetric functions
	// (XORs) have huge groups, so the tail is cut — losing only alternate
	// bindings, never the match itself (see the structural fallback).
	maxAutomorphisms = 64
)

// cellSig records that a library cell belongs to an NPN class: tc maps the
// cell's truth table to the class representative.
type cellSig struct {
	cell *genlib.Cell
	tc   npn.Transform
}

// classInfo is one NPN class that holds library cells.
type classInfo struct {
	key  string          // classKey: Match.Class and the journal's npn_class
	sigs []cellSig       // library cells in this class, in library order
	auts []npn.Transform // automorphism group of the representative
}

// rawKey names an n-input truth table.
type rawKey struct {
	n  uint8
	tt uint64
}

// config is one NPN configuration of a cell class: an n-input table that
// some library cell computes up to input permutation, input negation and
// output negation. tf is npn.Canonical's transform of the table onto the
// class representative, computed on first sight under once, so Map calls
// running concurrently share it.
type config struct {
	class *classInfo
	once  sync.Once
	tf    npn.Transform
}

// transform returns npn.Canonical's transform of tt, c's table, and
// whether this call ran npn.Canonical.
func (c *config) transform(tt uint64, n int) (tf npn.Transform, canonicalized bool) {
	c.once.Do(func() {
		_, c.tf = npn.Canonical(tt, n)
		canonicalized = true
	})
	return c.tf, canonicalized
}

// cellTable is the cut backend's view of one library: the NPN classes of
// its cells and every configuration of those classes. A support-reduced
// cut function matches some cell exactly when it is a configuration, so
// every other function is rejected without canonicalizing it. The table is
// built once per library and shared by every Map call; the configurations'
// transforms are its only state that changes, and they are bounded by the
// configuration set.
type cellTable struct {
	lib     *genlib.Library
	configs map[rawKey]*config
}

// lastTable holds the cell table of the library mapped most recently. One
// entry pins at most one library; mapping with another rebuilds it.
var lastTable atomic.Pointer[cellTable]

// cellTableFor returns lib's cell table, building it on first use. Calls
// that race to build it all return the first table stored, so they share
// one memo. The table is never rebuilt for the same library, so a library
// must not change once the cuts backend has mapped with it.
func cellTableFor(lib *genlib.Library) *cellTable {
	old := lastTable.Load()
	if old != nil && old.lib == lib {
		return old
	}
	t := newCellTable(lib)
	if !lastTable.CompareAndSwap(old, t) {
		if cur := lastTable.Load(); cur != nil && cur.lib == lib {
			return cur
		}
	}
	return t
}

// newCellTable groups lib's cells by NPN class and enumerates every
// configuration of each class. Cells with vacuous pins (function
// independent of some pin) are skipped: their support does not cover
// their pin list, so no cut function can bind every pin meaningfully.
// Each distinct cell table is canonicalized once, through the memo.
func newCellTable(lib *genlib.Library) *cellTable {
	t := &cellTable{lib: lib, configs: make(map[rawKey]*config)}
	for _, cell := range lib.Cells {
		ni := cell.NumInputs()
		if ni == 0 || ni > maxCutInputs {
			continue
		}
		tt, ok := cell.TruthTable()
		if !ok || len(npn.Support(tt, ni)) != ni {
			continue
		}
		c := t.configs[rawKey{uint8(ni), tt}]
		if c == nil {
			rep, tf := npn.Canonical(tt, ni)
			info := &classInfo{
				key:  classKey(ni, rep),
				auts: npn.Automorphisms(rep, ni, maxAutomorphisms),
			}
			orbit := npn.Orbit(rep, ni)
			cs := make([]config, len(orbit))
			for i, g := range orbit {
				cs[i].class = info
				t.configs[rawKey{uint8(ni), g}] = &cs[i]
			}
			c = t.configs[rawKey{uint8(ni), tt}]
			c.once.Do(func() { c.tf = tf })
		}
		tc, _ := c.transform(tt, ni)
		c.class.sigs = append(c.class.sigs, cellSig{cell: cell, tc: tc})
	}
	return t
}

// cutMatcher is the cut-based Boolean matching backend. All tables are
// precomputed sequentially on the coordinator (inside the mapper.cuts
// span), so matchesAt is a lock-free map read and the mapped netlist is
// identical for every worker count.
type cutMatcher struct {
	matches map[*network.Node][]Match
	deps    map[*network.Node][]*network.Node
}

func (c *cutMatcher) matchesAt(n *network.Node, _ *matchScratch) []Match { return c.matches[n] }

// depsOf lists the nodes whose curves matches at n read — the scheduling
// dependencies of the curve phase. Unlike structural matches, cut matches
// may bind leaves outside the network fanin cone (through strash sharing),
// so levels must be derived from these sets rather than n.Fanin.
func (c *cutMatcher) depsOf(n *network.Node) []*network.Node { return c.deps[n] }

// classKey formats an NPN class key, Match.Class: input count and
// canonical representative, e.g. "3:0x96".
func classKey(n int, rep uint64) string { return fmt.Sprintf("%d:%#x", n, rep) }

// lutName derives the deterministic synthetic-cell name for a LUT match.
func lutName(n int, tt uint64) string { return fmt.Sprintf("lut%d_%x", n, tt) }

// matchKey identifies a match by its cell and bound nodes, for dedupe.
type matchKey struct {
	cell string
	in   [maxCutInputs]*network.Node
}

// newCutMatcher builds the AIG, enumerates priority cuts, and precomputes
// every node's Boolean matches. In genlib mode cut functions match library
// cells through the library's cell table; with opt.LUT > 0 every cut maps
// to a synthetic LUT cell keyed by its (phase-adjusted, support-reduced)
// truth table. Matches never need an output inversion — a match is only
// emitted when every cell pin can be wired to an existing, topologically
// earlier network signal of the exact phase the transform demands — so
// Netlist.Verify's per-gate BDD identity holds by construction.
func newCutMatcher(ctx context.Context, sub *network.Network, opt Options) (*cutMatcher, error) {
	lib := opt.Library
	subject, err := aig.FromNetwork(sub)
	if err != nil {
		return nil, fmt.Errorf("mapper: %w", err)
	}
	k := opt.LUT
	var table *cellTable
	if k == 0 {
		if k = lib.MaxInputs(); k > maxCutInputs {
			k = maxCutInputs
		}
		table = cellTableFor(lib)
	}
	cuts := subject.G.EnumerateCuts(k, cutLimit)

	// LUT mode names every cut's class, so it canonicalizes each distinct
	// function once per call.
	lutClass := make(map[rawKey]string)
	lutCells := make(map[rawKey]*genlib.Cell)
	var protoPin genlib.Pin
	if nand := lib.Nand2(); nand != nil {
		protoPin = nand.Pins[0]
	}
	hits := opt.Obs.Counter("mapper.npn_cache_hits")
	misses := opt.Obs.Counter("mapper.npn_cache_misses")
	classGauge := opt.Obs.Gauge("mapper.npn_classes")
	cutsCtr := opt.Obs.Counter("mapper.cuts_enumerated")
	obsAIG(opt.Obs, subject.G)
	classes := make(map[string]bool) // classes the run's cut functions matched

	// localMatch covers a node whose global function strash-folded to a
	// constant with its literal local gate: the library inverter/NAND in
	// genlib mode, or the equivalent synthetic LUT in LUT mode.
	localMatch := func(n *network.Node) (Match, error) {
		if opt.LUT == 0 {
			if fb, ok := structuralFallback(n, lib); ok {
				return fb, nil
			}
			return Match{}, fmt.Errorf("mapper: node %s computes a constant and is not a decomposed gate", n.Name)
		}
		var (
			m  int
			tt uint64
		)
		switch {
		case decomp.IsInv(n):
			m, tt = 1, 0x1 // ¬x
		case decomp.IsNand2(n):
			m, tt = 2, 0x7 // ¬(ab)
		default:
			return Match{}, fmt.Errorf("mapper: node %s computes a constant and is not a decomposed gate", n.Name)
		}
		ck := rawKey{uint8(m), tt}
		cell := lutCells[ck]
		if cell == nil {
			var err error
			cell, err = genlib.NewLUTCell(lutName(m, tt), m, tt, float64(int(1)<<uint(m))/2, protoPin)
			if err != nil {
				return Match{}, err
			}
			lutCells[ck] = cell
		}
		inputs := make([]*network.Node, len(n.Fanin))
		copy(inputs, n.Fanin)
		return Match{Cell: cell, Inputs: inputs}, nil
	}

	cm := &cutMatcher{
		matches: make(map[*network.Node][]Match),
		deps:    make(map[*network.Node][]*network.Node),
	}
	seen := make(map[matchKey]bool)
	for _, n := range sub.TopoOrder() {
		if n.IsSource() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mapper: %w", err)
		}
		ln := subject.Lits[n]
		v := ln.Node()
		if v == 0 {
			// Structural hashing folded this node's global function to a
			// constant, so it has no AIG cone to cut. The network still
			// demands a gate here (downstream fanin is wired by name), so
			// cover the node with its own local function over its direct
			// fanins — exactly what the structural backend would emit.
			m, err := localMatch(n)
			if err != nil {
				return nil, err
			}
			cm.matches[n] = []Match{m}
			cm.deps[n] = depsOfMatches(cm.matches[n])
			continue
		}
		nodeTopo := subject.Topo[n]
		clear(seen)
		var out []Match
		add := func(cell *genlib.Cell, pins []*network.Node, class string) {
			key := matchKey{cell: cell.Name}
			copy(key.in[:], pins)
			if !seen[key] {
				seen[key] = true
				out = append(out, Match{Cell: cell, Inputs: slices.Clone(pins), Class: class})
			}
		}

		matchCut := func(leaves []uint32) error {
			tt, err := subject.G.CutTT(v, leaves)
			if err != nil {
				return err
			}
			nl := len(leaves)
			if ln.Neg() {
				tt = ^tt & npn.Mask(nl)
			}
			var pins [maxCutInputs]*network.Node
			if opt.LUT > 0 {
				// LUT mode: pick, per leaf, whichever phase has a network
				// signal (every AND node's negative phase does — the NAND2
				// that created it), fold the chosen phases into the truth
				// table, reduce, and key a synthetic cell by the raw table.
				var flips uint8
				for i, leaf := range leaves {
					r := subject.Reps[aig.MakeLit(leaf, false)]
					if r == nil || subject.Topo[r] >= nodeTopo {
						r = subject.Reps[aig.MakeLit(leaf, true)]
						if r == nil || subject.Topo[r] >= nodeTopo {
							return nil // uncovered phase; try other cuts
						}
						flips |= 1 << uint(i)
					}
					pins[i] = r
				}
				tt = npn.FlipInputs(tt, nl, flips)
				rtt, sup := npn.Reduce(tt, nl)
				m := len(sup)
				if m == 0 {
					return nil
				}
				ck := rawKey{uint8(m), rtt}
				key, ok := lutClass[ck]
				if ok {
					hits.Inc()
				} else {
					misses.Inc()
					rep, _ := npn.Canonical(rtt, m)
					key = classKey(m, rep)
					lutClass[ck] = key
				}
				classes[key] = true
				cell := lutCells[ck]
				if cell == nil {
					cell, err = genlib.NewLUTCell(lutName(m, rtt), m, rtt, float64(int(1)<<uint(m))/2, protoPin)
					if err != nil {
						return err
					}
					lutCells[ck] = cell
				}
				for i, s := range sup {
					pins[i] = pins[s]
				}
				add(cell, pins[:m], key)
				return nil
			}
			rtt, sup := npn.Reduce(tt, nl)
			m := len(sup)
			if m == 0 {
				return nil
			}
			c := table.configs[rawKey{uint8(m), rtt}]
			if c == nil {
				// No library cell is NPN-equivalent to the cut function.
				hits.Inc()
				return nil
			}
			tf, canonicalized := c.transform(rtt, m)
			if canonicalized {
				misses.Inc()
			} else {
				hits.Inc()
			}
			info := c.class
			classes[info.key] = true
			invTf := tf.Invert()
			for _, sig := range info.sigs {
				for _, aut := range info.auts {
					// u maps the cell function onto the cut function:
					// u.Apply(cellTT) == rtt. Every valid u is reached as
					// invTf ∘ aut ∘ tc over the representative's
					// automorphisms.
					u := npn.Compose(invTf, npn.Compose(aut, sig.tc))
					if u.NegOut {
						// The netlist demands exact per-gate BDD identity;
						// an output inversion cannot be absorbed.
						continue
					}
					ok := true
					for j := 0; j < m; j++ {
						leaf := leaves[sup[u.Perm[j]]]
						neg := u.Flips>>uint(j)&1 == 1
						r := subject.Reps[aig.MakeLit(leaf, neg)]
						if r == nil || subject.Topo[r] >= nodeTopo {
							ok = false
							break
						}
						pins[j] = r
					}
					if ok {
						add(sig.cell, pins[:m], info.key)
					}
				}
			}
			return nil
		}

		for _, cut := range cuts[v] {
			if err := matchCut(cut.Leaves); err != nil {
				return nil, err
			}
		}
		cutsCtr.Add(int64(len(cuts[v])))
		if len(out) == 0 && opt.LUT == 0 {
			// Guaranteed fallback: the subject node's own gate. Reachable
			// only when cut pruning or the automorphism cap starved a
			// pathological node; the library always has nand2 and inv.
			if fb, ok := structuralFallback(n, lib); ok {
				out = append(out, fb)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("mapper: no NPN match at node %s", n.Name)
		}
		cm.matches[n] = out
		cm.deps[n] = depsOfMatches(out)
	}
	classGauge.Set(float64(len(classes)))
	return cm, nil
}

// obsAIG exports the subject-graph counters.
func obsAIG(sc *obs.Scope, g *aig.Graph) {
	sc.Gauge("aig.nodes").Set(float64(g.Len()))
	sc.Gauge("aig.and_nodes").Set(float64(g.NumAnds()))
	sc.Gauge("aig.strash_dedup").Set(float64(g.Dedup()))
}

// structuralFallback covers a subject node with its literal gate.
func structuralFallback(n *network.Node, lib *genlib.Library) (Match, bool) {
	switch {
	case decomp.IsInv(n):
		return Match{Cell: lib.Inverter(), Inputs: []*network.Node{n.Fanin[0]}}, true
	case decomp.IsNand2(n):
		return Match{Cell: lib.Nand2(), Inputs: []*network.Node{n.Fanin[0], n.Fanin[1]}}, true
	}
	return Match{}, false
}

// depsOfMatches unions the input nodes across a node's matches, preserving
// first-appearance order.
func depsOfMatches(ms []Match) []*network.Node {
	seen := make(map[*network.Node]bool)
	var out []*network.Node
	for _, m := range ms {
		for _, in := range m.Inputs {
			if !seen[in] {
				seen[in] = true
				out = append(out, in)
			}
		}
	}
	return out
}
