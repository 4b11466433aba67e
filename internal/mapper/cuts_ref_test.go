package mapper

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"powermap/internal/aig"
	"powermap/internal/circuits"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/network"
	"powermap/internal/npn"
)

// refClassInfo is newCutMatcherReference's per-call class cache entry.
type refClassInfo struct {
	sigs []cellSig       // library cells in this class (genlib mode)
	auts []npn.Transform // automorphism group of the representative
}

// referenceSigs returns the NPN signatures of the library cells, grouped
// by class key. Cells with vacuous pins (function independent of some pin)
// are skipped: their support does not cover their pin list, so no cut
// function can bind every pin meaningfully.
func referenceSigs(lib *genlib.Library) map[string][]cellSig {
	sigsByKey := make(map[string][]cellSig)
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
	return sigsByKey
}

// newCutMatcherReference is the cut matcher before the per-library cell
// table: it canonicalizes the library cells and every cut function in
// each call and keeps its class table per call. TestCutMatchesReference
// holds newCutMatcher to it. It builds the AIG, enumerates priority cuts, and precomputes
// every node's Boolean matches. In genlib mode cut functions match library
// cells through NPN class signatures; with opt.LUT > 0 every cut maps to a
// synthetic LUT cell keyed by its (phase-adjusted, support-reduced) truth
// table. Matches never need an output inversion — a match is only emitted
// when every cell pin can be wired to an existing, topologically earlier
// network signal of the exact phase the transform demands — so
// Netlist.Verify's per-gate BDD identity holds by construction.
func newCutMatcherReference(ctx context.Context, sub *network.Network, opt Options) (*cutMatcher, error) {
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

	sigsByKey := make(map[string][]cellSig)
	if opt.LUT == 0 {
		sigsByKey = referenceSigs(lib)
	}

	type canonResult struct {
		rep uint64
		tf  npn.Transform
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
	classes := make(map[string]*refClassInfo)
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
	classAt := func(key string, rep uint64, m int) *refClassInfo {
		if info, ok := classes[key]; ok {
			hits.Inc()
			return info
		}
		misses.Inc()
		info := &refClassInfo{sigs: sigsByKey[key]}
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

// TestCutMatchesReference holds newCutMatcher to the per-call reference:
// at every subject node of the bundled circuits (conventional and
// MINPOWER decompositions) and of random networks, in library and 4-LUT
// mode, both offer the same matches in the same order (cell, inputs and
// class) and the same dependencies.
func TestCutMatchesReference(t *testing.T) {
	type net struct {
		name string
		sub  *network.Network
	}
	small, _ := subject(t, smallBlif)
	nets := []net{{"small", small}, {"shared", sharedLeafSubject()}}
	for _, strategy := range []decomp.Strategy{decomp.Conventional, decomp.MinPower} {
		for _, b := range circuits.Suite() {
			sub, _ := decomposed(t, b.Build(), strategy)
			nets = append(nets, net{b.Name + "-" + strategy.String(), sub})
		}
		for seed := int64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("random-%d", seed)
			sub, _ := decomposed(t, circuits.Random(name, seed, 5+int(seed%3), 2+int(seed%3), 10+3*int(seed)), strategy)
			nets = append(nets, net{name + "-" + strategy.String(), sub})
		}
	}
	ctx := context.Background()
	lists := 0
	for _, lut := range []int{0, 4} {
		opt := Options{Library: genlib.Lib2(), Backend: BackendCuts, LUT: lut}
		sameCell := func(a, b *genlib.Cell) bool {
			// LUT cells are made per call; their names encode the table.
			return a == b || (lut > 0 && a.Name == b.Name)
		}
		for _, nt := range nets {
			got, err := newCutMatcher(ctx, nt.sub, opt)
			if err != nil {
				t.Fatalf("%s lut=%d: %v", nt.name, lut, err)
			}
			want, err := newCutMatcherReference(ctx, nt.sub, opt)
			if err != nil {
				t.Fatalf("%s lut=%d: reference: %v", nt.name, lut, err)
			}
			if len(got.matches) != len(want.matches) {
				t.Fatalf("%s lut=%d: matches at %d nodes, reference at %d", nt.name, lut, len(got.matches), len(want.matches))
			}
			for _, n := range nt.sub.TopoOrder() {
				if n.IsSource() {
					continue
				}
				g, w := got.matches[n], want.matches[n]
				if !slices.EqualFunc(g, w, func(a, b Match) bool {
					return sameCell(a.Cell, b.Cell) && slices.Equal(a.Inputs, b.Inputs) && a.Class == b.Class
				}) {
					t.Fatalf("%s lut=%d: node %s: matches %s, reference %s", nt.name, lut, n.Name, matchNames(g), matchNames(w))
				}
				if !slices.Equal(got.deps[n], want.deps[n]) {
					t.Fatalf("%s lut=%d: node %s: deps differ from the reference", nt.name, lut, n.Name)
				}
				lists++
			}
		}
	}
	t.Logf("%d match lists on %d subject networks match the reference", lists, 2*len(nets))
}
