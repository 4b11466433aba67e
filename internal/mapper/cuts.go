package mapper

import (
	"context"
	"fmt"
	"strings"

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

// classInfo is the NPN match cache entry for one canonical class.
type classInfo struct {
	sigs []cellSig       // library cells in this class (genlib mode)
	auts []npn.Transform // automorphism group of the representative
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

// classKey formats the NPN match-cache key: input count and canonical
// representative, e.g. "3:0x96".
func classKey(n int, rep uint64) string { return fmt.Sprintf("%d:%#x", n, rep) }

// lutName derives the deterministic synthetic-cell name for a LUT match.
func lutName(n int, tt uint64) string { return fmt.Sprintf("lut%d_%x", n, tt) }

// newCutMatcher builds the AIG, enumerates priority cuts, and precomputes
// every node's Boolean matches. In genlib mode cut functions match library
// cells through NPN class signatures; with opt.LUT > 0 every cut maps to a
// synthetic LUT cell keyed by its (phase-adjusted, support-reduced) truth
// table. Matches never need an output inversion — a match is only emitted
// when every cell pin can be wired to an existing, topologically earlier
// network signal of the exact phase the transform demands — so
// Netlist.Verify's per-gate BDD identity holds by construction.
func newCutMatcher(ctx context.Context, sub *network.Network, opt Options) (*cutMatcher, error) {
	lib := opt.Library
	subject, err := aig.FromNetwork(sub)
	if err != nil {
		return nil, fmt.Errorf("mapper: %w", err)
	}
	k := opt.LUT
	if k == 0 {
		if k = lib.MaxInputs(); k > maxCutInputs {
			k = maxCutInputs
		}
	}
	cuts := subject.G.EnumerateCuts(k, cutLimit)

	// NPN signatures of the library cells, grouped by canonical class.
	// Cells with vacuous pins (function independent of some pin) are
	// skipped: their support does not cover their pin list, so no cut
	// function can bind every pin meaningfully.
	sigsByKey := make(map[string][]cellSig)
	if opt.LUT == 0 {
		for _, cell := range lib.Cells {
			ni := cell.NumInputs()
			if ni == 0 || ni > maxCutInputs {
				continue
			}
			tt, ok := cell.TruthTable()
			if !ok {
				continue
			}
			if len(npn.Support(tt, ni)) != ni {
				continue
			}
			rep, tc := npn.Canonical(tt, ni)
			key := classKey(ni, rep)
			sigsByKey[key] = append(sigsByKey[key], cellSig{cell: cell, tc: tc})
		}
	}

	type canonResult struct {
		rep uint64
		tf  npn.Transform
	}
	type rawKey struct {
		n  uint8
		tt uint64
	}
	canonCache := make(map[rawKey]canonResult)
	canonical := func(tt uint64, n int) (uint64, npn.Transform) {
		ck := rawKey{uint8(n), tt}
		if r, ok := canonCache[ck]; ok {
			return r.rep, r.tf
		}
		rep, tf := npn.Canonical(tt, n)
		canonCache[ck] = canonResult{rep, tf}
		return rep, tf
	}
	classes := make(map[string]*classInfo)
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

	// classAt resolves the match-cache entry for a canonical class,
	// counting hits and misses.
	classAt := func(key string, rep uint64, m int) *classInfo {
		if info, ok := classes[key]; ok {
			hits.Inc()
			return info
		}
		misses.Inc()
		info := &classInfo{sigs: sigsByKey[key]}
		if len(info.sigs) > 0 {
			info.auts = npn.Automorphisms(rep, m, maxAutomorphisms)
		}
		classes[key] = info
		return info
	}

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
		seen := make(map[string]bool)
		var out []Match
		add := func(m Match) {
			var b strings.Builder
			b.WriteString(m.Cell.Name)
			for _, in := range m.Inputs {
				b.WriteByte('|')
				b.WriteString(in.Name)
			}
			if key := b.String(); !seen[key] {
				seen[key] = true
				out = append(out, m)
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
			if opt.LUT > 0 {
				// LUT mode: pick, per leaf, whichever phase has a network
				// signal (every AND node's negative phase does — the NAND2
				// that created it), fold the chosen phases into the truth
				// table, reduce, and key a synthetic cell by the raw table.
				inputs := make([]*network.Node, nl)
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
					inputs[i] = r
				}
				tt = npn.FlipInputs(tt, nl, flips)
				rtt, sup := npn.Reduce(tt, nl)
				m := len(sup)
				if m == 0 {
					return nil
				}
				rep, _ := canonical(rtt, m)
				key := classKey(m, rep)
				classAt(key, rep, m)
				ck := rawKey{uint8(m), rtt}
				cell := lutCells[ck]
				if cell == nil {
					cell, err = genlib.NewLUTCell(lutName(m, rtt), m, rtt, float64(int(1)<<uint(m))/2, protoPin)
					if err != nil {
						return err
					}
					lutCells[ck] = cell
				}
				pins := make([]*network.Node, m)
				for i, s := range sup {
					pins[i] = inputs[s]
				}
				add(Match{Cell: cell, Inputs: pins, Class: key})
				return nil
			}
			rtt, sup := npn.Reduce(tt, nl)
			m := len(sup)
			if m == 0 {
				return nil
			}
			rep, tf := canonical(rtt, m)
			key := classKey(m, rep)
			info := classAt(key, rep, m)
			if len(info.sigs) == 0 {
				return nil
			}
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
					inputs := make([]*network.Node, m)
					ok := true
					for j := 0; j < m; j++ {
						leaf := leaves[sup[u.Perm[j]]]
						neg := u.Flips>>uint(j)&1 == 1
						r := subject.Reps[aig.MakeLit(leaf, neg)]
						if r == nil || subject.Topo[r] >= nodeTopo {
							ok = false
							break
						}
						inputs[j] = r
					}
					if !ok {
						continue
					}
					add(Match{Cell: sig.cell, Inputs: inputs, Class: key})
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
