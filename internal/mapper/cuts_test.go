package mapper

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"powermap/internal/circuits"
	"powermap/internal/decomp"
	"powermap/internal/genlib"
	"powermap/internal/journal"
	"powermap/internal/network"
	"powermap/internal/npn"
	"powermap/internal/obs"
	"powermap/internal/prob"
)

// freshLib2 parses lib2 anew from its own cells. The cell table cache is
// keyed by library, so mapping with the result starts from a cold table.
// Every lib2 cell declares one PIN line for all its pins.
func freshLib2(t *testing.T) *genlib.Library {
	t.Helper()
	phase := map[genlib.Phase]string{genlib.PhaseUnknown: "UNKNOWN", genlib.PhaseInv: "INV", genlib.PhaseNonInv: "NONINV"}
	var b strings.Builder
	for _, c := range genlib.Lib2().Cells {
		p := c.Pins[0]
		fmt.Fprintf(&b, "GATE %s %g %s=%s; PIN * %s %g %g %g %g %g %g\n", c.Name, c.Area, c.Output, c.Expr,
			phase[p.Phase], p.Load, p.MaxLoad, p.Block, p.Drive, p.Block, p.Drive)
	}
	lib, err := genlib.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	lib.Name = genlib.Lib2().Name
	if !reflect.DeepEqual(lib, genlib.Lib2()) {
		t.Fatal("re-parsed lib2 differs from lib2")
	}
	return lib
}

func mapSmallCuts(t *testing.T, opt Options) *Netlist {
	t.Helper()
	opt.Backend = BackendCuts
	return mapSmall(t, opt)
}

func TestCutBackendMapsAndVerifies(t *testing.T) {
	for _, obj := range []Objective{AreaDelay, PowerDelay} {
		nl := mapSmallCuts(t, Options{Objective: obj})
		if len(nl.Gates) == 0 {
			t.Fatalf("%v: no gates mapped", obj)
		}
		if nl.Report.GateArea <= 0 || nl.Report.Delay <= 0 || nl.Report.PowerUW <= 0 {
			t.Errorf("%v: degenerate report: %+v", obj, nl.Report)
		}
	}
}

func TestCutBackendLUTMode(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		nl := mapSmallCuts(t, Options{Objective: PowerDelay, LUT: k})
		if len(nl.Gates) == 0 {
			t.Fatalf("lut=%d: no gates mapped", k)
		}
		for _, g := range nl.Gates {
			if !strings.HasPrefix(g.Cell.Name, "lut") {
				t.Fatalf("lut=%d: gate %s mapped to non-LUT cell %s", k, g.Root.Name, g.Cell.Name)
			}
			if g.Cell.NumInputs() > k {
				t.Fatalf("lut=%d: cell %s exceeds arity", k, g.Cell.Name)
			}
		}
	}
}

func TestLUTModeValidation(t *testing.T) {
	sub, model := subject(t, smallBlif)
	if _, err := Map(context.Background(), sub, model, Options{Library: genlib.Lib2(), LUT: 4}); err == nil {
		t.Fatal("LUT mode without the cuts backend accepted")
	}
	if _, err := Map(context.Background(), sub, model, Options{Library: genlib.Lib2(), Backend: BackendCuts, LUT: 7}); err == nil {
		t.Fatal("LUT arity 7 accepted")
	}
	if _, err := Map(context.Background(), sub, model, Options{Library: genlib.Lib2(), Backend: BackendCuts, LUT: 1}); err == nil {
		t.Fatal("LUT arity 1 accepted")
	}
}

// TestCutBackendDeterministicAcrossWorkers demands bit-identical netlists
// for every worker count, like the structural backend.
func TestCutBackendDeterministicAcrossWorkers(t *testing.T) {
	signature := func(nl *Netlist) string {
		var b strings.Builder
		for _, g := range nl.Gates {
			b.WriteString(g.Root.Name)
			b.WriteByte('=')
			b.WriteString(g.Cell.Name)
			for _, in := range g.Inputs {
				b.WriteByte(',')
				b.WriteString(in.Name)
			}
			b.WriteByte(';')
		}
		return b.String()
	}
	var want string
	for i, w := range []int{1, 2, 8} {
		nl := mapSmallCuts(t, Options{Objective: PowerDelay, Workers: w})
		if sig := signature(nl); i == 0 {
			want = sig
		} else if sig != want {
			t.Fatalf("workers=%d netlist differs:\n%s\nvs\n%s", w, sig, want)
		}
	}
}

// TestCutBackendAuditsCurves proves the non-inferiority invariant holds
// for cut-generated curves too (Lemma 3.1 is backend-independent).
func TestCutBackendAuditsCurves(t *testing.T) {
	audited := 0
	mapSmallCuts(t, Options{
		Objective: PowerDelay,
		CurveAudit: func(n *network.Node, c *Curve) {
			audited++
			for i := 1; i < len(c.Points); i++ {
				if c.Points[i].Arrival <= c.Points[i-1].Arrival {
					t.Errorf("%s: arrivals not strictly increasing at %d", n.Name, i)
				}
				if c.Points[i].Cost >= c.Points[i-1].Cost {
					t.Errorf("%s: costs not strictly decreasing at %d", n.Name, i)
				}
			}
		},
	})
	if audited == 0 {
		t.Fatal("no curves audited")
	}
}

// TestCutBackendObsCounters checks the NPN cache and AIG counters surface
// through obs. A freshly parsed library has a cold cell table, so the run
// must call npn.Canonical whatever ran before it.
func TestCutBackendObsCounters(t *testing.T) {
	sc := obs.New(obs.Config{})
	mapSmallCuts(t, Options{Objective: PowerDelay, Obs: sc, Library: freshLib2(t)})
	snap := sc.Snapshot()
	want := []string{
		"mapper.npn_cache_hits", "mapper.npn_cache_misses",
		"mapper.npn_classes", "mapper.cuts_enumerated",
		"aig.nodes", "aig.strash_dedup",
	}
	for _, name := range want {
		_, inCounters := snap.Counters[name]
		_, inGauges := snap.Gauges[name]
		if !inCounters && !inGauges {
			t.Errorf("metric %s missing from obs snapshot", name)
		}
	}
	if snap.Counters["mapper.npn_cache_misses"] <= 0 {
		t.Error("npn cache miss counter never incremented")
	}
}

// TestCutBackendJournalsClass checks map.site events from the cut backend
// carry the NPN class and cut leaves.
func TestCutBackendJournalsClass(t *testing.T) {
	var buf bytes.Buffer
	jr := journal.New(&buf, journal.Header{RunID: "test"})
	mapSmallCuts(t, Options{Objective: PowerDelay, Journal: jr})
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	sites := 0
	withClass := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, `"type":"map.site"`) {
			continue
		}
		var ev struct {
			NPNClass  string   `json:"npn_class"`
			CutLeaves []string `json:"cut_leaves"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad map.site line: %v", err)
		}
		sites++
		if ev.NPNClass != "" {
			withClass++
			if len(ev.CutLeaves) == 0 {
				t.Errorf("map.site with class %s has no cut leaves", ev.NPNClass)
			}
		}
	}
	if sites == 0 {
		t.Fatal("no map.site events journaled")
	}
	if withClass == 0 {
		t.Fatal("no map.site event carries an NPN class")
	}
}

// TestCutTableMatchesCanonical holds lib2's cell table to npn.Canonical.
// Its classes must be the reference's, with the same cell signatures in
// the same order. A table must be a configuration exactly when Canonical
// puts it in a class that holds a cell, and a configuration's memoized
// transform must be Canonical's. Every function of up to 4 inputs is
// checked; at 5 and 6 inputs, every configuration and random tables.
func TestCutTableMatchesCanonical(t *testing.T) {
	lib := freshLib2(t)
	table := newCellTable(lib)
	ref := referenceSigs(lib)
	var classes []*classInfo
	for _, c := range table.configs {
		if !slices.Contains(classes, c.class) {
			classes = append(classes, c.class)
		}
	}
	if len(classes) != len(ref) {
		t.Fatalf("%d classes, reference has %d", len(classes), len(ref))
	}
	for _, info := range classes {
		want := ref[info.key]
		if !slices.EqualFunc(info.sigs, want, func(a, b cellSig) bool { return a.cell == b.cell && a.tc == b.tc }) {
			t.Fatalf("class %s: cell signatures %v, reference %v", info.key, info.sigs, want)
		}
	}
	check := func(tt uint64, n int) {
		t.Helper()
		rep, tf := npn.Canonical(tt, n)
		key := classKey(n, rep)
		c := table.configs[rawKey{uint8(n), tt}]
		if in := c != nil; in != (len(ref[key]) > 0) {
			t.Fatalf("n=%d tt=%#x (class %s): in the configuration set = %v, class holds %d cells", n, tt, key, in, len(ref[key]))
		}
		if c == nil {
			return
		}
		if c.class.key != key {
			t.Fatalf("n=%d tt=%#x: class %s, Canonical gives %s", n, tt, c.class.key, key)
		}
		if got, _ := c.transform(tt, n); got != tf {
			t.Fatalf("n=%d tt=%#x: memoized transform %+v, Canonical gives %+v", n, tt, got, tf)
		}
	}
	for n := 0; n <= 4; n++ {
		for tt := uint64(0); tt <= npn.Mask(n); tt++ {
			check(tt, n)
		}
	}
	// Above 4 inputs, every configuration in the set must be in its class,
	// and each class must hold as many as its orbit has tables:
	// n!·2^n·2 transforms over the representative's automorphisms.
	r := rand.New(rand.NewSource(28))
	perClass := make(map[*classInfo]int)
	for n := 5; n <= npn.Max; n++ {
		for k, c := range table.configs {
			if int(k.n) == n {
				check(k.tt, n)
				perClass[c.class]++
			}
		}
		for i := 0; i < 200; i++ {
			check(r.Uint64()&npn.Mask(n), n)
		}
	}
	for _, info := range classes {
		tt, _ := info.sigs[0].cell.TruthTable()
		n := info.sigs[0].cell.NumInputs()
		if n < 5 {
			continue
		}
		rep, _ := npn.Canonical(tt, n)
		transforms := 2 << n
		for i := 2; i <= n; i++ {
			transforms *= i
		}
		if want := transforms / len(npn.Automorphisms(rep, n, 0)); perClass[info] != want {
			t.Fatalf("class %s has %d configurations, its orbit %d", info.key, perClass[info], want)
		}
	}
	t.Logf("%d configurations in %d classes", len(table.configs), len(classes))
}

// TestCutMatchConcurrentMaps: eight Map calls on s344 and alu2 share the
// cold cell table of a freshly parsed lib2 and race to fill its memo. Each
// netlist and report must equal a sequential run's byte for byte.
func TestCutMatchConcurrentMaps(t *testing.T) {
	type job struct {
		sub   *network.Network
		model *prob.Model
	}
	var jobs [8]job
	names := []string{"s344", "alu2"}
	for i := range jobs {
		b, err := circuits.ByName(names[i%2])
		if err != nil {
			t.Fatal(err)
		}
		// Each call gets its own subject network: Map reads only its own.
		jobs[i].sub, jobs[i].model = decomposed(t, b.Build(), decomp.MinPower)
	}
	render := func(lib *genlib.Library, j job) (string, error) {
		nl, err := Map(context.Background(), j.sub, j.model, Options{
			Objective: PowerDelay, Library: lib, Backend: BackendCuts, Workers: 1,
		})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		if err := nl.WriteBLIF(&b); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%+v\n", nl.Report)
		return b.String(), nil
	}
	var want [2]string
	for i := range want {
		var err error
		if want[i], err = render(genlib.Lib2(), jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	lib := freshLib2(t)
	var got [len(jobs)]string
	var errs [len(jobs)]error
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = render(lib, jobs[i])
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", names[i%2], errs[i])
		}
		if got[i] != want[i%2] {
			t.Errorf("%s (call %d): concurrent netlist differs from the sequential run", names[i%2], i)
		}
	}
}
