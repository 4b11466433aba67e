package eval

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermap/internal/core"
	"powermap/internal/huffman"
	"powermap/internal/journal"
	"powermap/internal/obs"
	"powermap/internal/power"
)

func TestTable1ShapeAndDeterminism(t *testing.T) {
	rows := Table1(60, 1993)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if r.Inputs != i+3 {
			t.Errorf("row %d inputs = %d", i, r.Inputs)
		}
		if r.PercentOptimal < 70 || r.PercentOptimal > 100 {
			t.Errorf("n=%d optimality %.1f%% implausible", r.Inputs, r.PercentOptimal)
		}
	}
	// n=3 has only three distinct trees and the greedy evaluates all
	// pairs, so it must be exactly optimal.
	if rows[0].PercentOptimal != 100 {
		t.Errorf("n=3 optimality %.1f%%, want 100", rows[0].PercentOptimal)
	}
	again := Table1(60, 1993)
	for i := range rows {
		if rows[i] != again[i] {
			t.Error("Table1 is not deterministic for a fixed seed")
		}
	}
}

func TestFormatTable1(t *testing.T) {
	out := FormatTable1(Table1(10, 7))
	if !strings.Contains(out, "numbers of input") || !strings.Contains(out, "3") {
		t.Errorf("unexpected format:\n%s", out)
	}
}

func TestRunSuiteSmall(t *testing.T) {
	rows, err := RunSuite(context.Background(), core.Methods(), core.Options{Style: huffman.Static}, []string{"cm42a", "alu2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for _, m := range core.Methods() {
			rep, ok := r.Results[m]
			if !ok {
				t.Fatalf("%s missing method %v", r.Circuit, m)
			}
			if rep.Gates == 0 || rep.PowerUW <= 0 || rep.GateArea <= 0 || rep.Delay <= 0 {
				t.Errorf("%s method %v degenerate: %+v", r.Circuit, m, rep)
			}
		}
		// The headline shape on each circuit: pd-map (IV) beats ad-map (I)
		// on power under the common constraint.
		if r.Results[core.MethodIV].PowerUW > r.Results[core.MethodI].PowerUW*1.02 {
			t.Errorf("%s: pd-map power %.2f not better than ad-map %.2f",
				r.Circuit, r.Results[core.MethodIV].PowerUW, r.Results[core.MethodI].PowerUW)
		}
	}
	// Formatting and summary must not choke.
	table := FormatTable(rows, core.Methods())
	if !strings.Contains(table, "cm42a") || !strings.Contains(table, "alu2") {
		t.Errorf("format missing circuits:\n%s", table)
	}
	s := Summarize(rows)
	if s.PdPower >= 0 {
		t.Errorf("summary pd power change %.2f%% not negative", s.PdPower)
	}
	txt := FormatSummary(s)
	if !strings.Contains(txt, "paper") {
		t.Errorf("summary format:\n%s", txt)
	}
}

func TestRunSuiteUnknownCircuit(t *testing.T) {
	if _, err := RunSuite(context.Background(), core.Methods(), core.Options{Style: huffman.Static}, []string{"bogus"}); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestSortRowsByTableOrder(t *testing.T) {
	rows := []CircuitRow{{Circuit: "alu2"}, {Circuit: "s208"}, {Circuit: "cm42a"}}
	SortRowsByTableOrder(rows)
	if rows[0].Circuit != "s208" || rows[1].Circuit != "cm42a" || rows[2].Circuit != "alu2" {
		t.Errorf("order: %v %v %v", rows[0].Circuit, rows[1].Circuit, rows[2].Circuit)
	}
}

func TestSummarizeArithmetic(t *testing.T) {
	mk := func(a, d, p float64) power.Report { return power.Report{GateArea: a, Delay: d, PowerUW: p} }
	rows := []CircuitRow{{
		Circuit: "x",
		Results: map[core.Method]power.Report{
			core.MethodI:   mk(100, 10, 100),
			core.MethodII:  mk(100, 10, 90), // -10%
			core.MethodIII: mk(100, 10, 90),
			core.MethodIV:  mk(110, 10, 80), // vs I: +10% area, -20% power
			core.MethodV:   mk(110, 10, 72), // vs IV: -10% power
			core.MethodVI:  mk(110, 10, 72),
		},
	}}
	s := Summarize(rows)
	if !closeTo(s.MinpowerPower, -10) {
		t.Errorf("MinpowerPower = %v, want -10", s.MinpowerPower)
	}
	if !closeTo(s.PdArea, 10) {
		t.Errorf("PdArea = %v, want 10", s.PdArea)
	}
	// PdPower: IV/I = -20, V/II = -20, VI/III = -20.
	if !closeTo(s.PdPower, -20) {
		t.Errorf("PdPower = %v, want -20", s.PdPower)
	}
	if !closeTo(s.BHDelay, 0) {
		t.Errorf("BHDelay = %v, want 0", s.BHDelay)
	}
}

func closeTo(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestCorrelatedExperiment(t *testing.T) {
	// With independent inputs both trees must measure (statistically) the
	// same; with strong pair correlation the Equation 7–9 tree must win.
	indep, err := Correlated(4, 0, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := indep.ImprovementPct; d > 3 || d < -3 {
		t.Errorf("rho=0: improvement %.1f%% should be ~0", d)
	}
	strong, err := Correlated(4, 0.9, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if strong.ImprovementPct < 5 {
		t.Errorf("rho=0.9: improvement %.1f%%, want clearly positive", strong.ImprovementPct)
	}
	if strong.CorrMeasured >= strong.IndepMeasured {
		t.Errorf("correlated tree %.4f not below independence tree %.4f",
			strong.CorrMeasured, strong.IndepMeasured)
	}
}

func TestCorrelatedValidation(t *testing.T) {
	if _, err := Correlated(1, 0.5, 100, 1); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := Correlated(3, 1.5, 100, 1); err == nil {
		t.Error("rho > 1 accepted")
	}
	if _, err := Correlated(3, 0.5, 0, 1); err == nil {
		t.Error("zero vectors accepted")
	}
}

func TestFormatCorrelated(t *testing.T) {
	r, err := Correlated(3, 0.5, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatCorrelated([]CorrelatedResult{r})
	if !strings.Contains(out, "rho") || !strings.Contains(out, "0.50") {
		t.Errorf("format:\n%s", out)
	}
}

func TestSuiteNames(t *testing.T) {
	names := SuiteNames()
	if len(names) != 17 || names[0] != "s208" || names[len(names)-1] != "ex2" {
		t.Errorf("suite names: %v", names)
	}
}

// TestRunSuiteTelemetryLabels checks satellite instrumentation of the
// suite: every (circuit, method) run tags its spans and metrics with job
// labels, and those labels survive the worker-pool fan-out.
func TestRunSuiteTelemetryLabels(t *testing.T) {
	sc := obs.New(obs.Config{})
	base := core.Options{Style: huffman.Static, Obs: sc, Workers: 2}
	methods := []core.Method{core.MethodI, core.MethodVI}
	if _, err := RunSuite(context.Background(), methods, base, []string{"cm42a", "x2"}); err != nil {
		t.Fatal(err)
	}
	sn := sc.Snapshot()
	for _, key := range []string{
		`eval.runs{circuit="cm42a",method="I"}`,
		`eval.runs{circuit="cm42a",method="VI"}`,
		`eval.runs{circuit="x2",method="I"}`,
		`eval.runs{circuit="x2",method="VI"}`,
	} {
		if sn.Counters[key] != 1 {
			t.Errorf("counter %s = %d, want 1 (have %v)", key, sn.Counters[key], sn.Counters)
		}
	}
	runs, refs := 0, 0
	for _, sp := range sn.Spans {
		switch sp.Name {
		case "eval.run":
			runs++
			if sp.Attrs["circuit"] == nil || sp.Attrs["method"] == nil {
				t.Errorf("eval.run span missing job labels: %#v", sp.Attrs)
			}
			if sp.Attrs["gates"] == nil {
				t.Errorf("eval.run span missing gates attr: %#v", sp.Attrs)
			}
		case "eval.reference":
			refs++
			if sp.Attrs["stage"] != "reference" {
				t.Errorf("reference span attrs = %#v", sp.Attrs)
			}
		case "decompose", "map":
			// Pipeline phases inherit the job labels through the context
			// even when run from a pool worker goroutine.
			if sp.Attrs["circuit"] == nil {
				t.Errorf("%s span lost its job label: %#v", sp.Name, sp.Attrs)
			}
		}
	}
	if runs != 4 {
		t.Errorf("eval.run spans = %d, want 4", runs)
	}
	if refs != 2 {
		t.Errorf("eval.reference spans = %d, want 2", refs)
	}
	// The suite fan-out runs under labeled worker tracks.
	workerTracks := 0
	for _, name := range sc.TrackNames() {
		if strings.HasPrefix(name, "eval.suite/w") || strings.HasPrefix(name, "eval.reference/w") {
			workerTracks++
		}
	}
	if workerTracks == 0 {
		t.Errorf("no eval worker tracks allocated: %v", sc.TrackNames())
	}
}

func TestRunSuiteJournaled(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New(obs.Config{})
	methods := []core.Method{core.MethodI, core.MethodV}
	rows, err := RunSuiteJournaled(context.Background(), methods,
		core.Options{Obs: sc, Workers: 2}, []string{"x2"},
		JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}

	// One journal per run: the reference run plus one per method.
	want := []string{"x2-I.jsonl", "x2-V.jsonl", "x2-ref.jsonl"}
	runID := ""
	for _, name := range want {
		run, err := journal.ReadRunFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := run.Header
		if h.Circuit != "x2" {
			t.Errorf("%s: circuit = %q", name, h.Circuit)
		}
		if runID == "" {
			runID = h.RunID
		} else if h.RunID != runID {
			t.Errorf("%s: run_id = %q, want %q (all files share one suite ID)", name, h.RunID, runID)
		}
		if run.Counts[journal.TypeDecompNode] == 0 || run.Counts[journal.TypeMapSite] == 0 {
			t.Errorf("%s: missing provenance events: %v", name, run.Counts)
		}
		// Attribution must cover the report total exactly (same walk).
		if run.Report == nil {
			t.Fatalf("%s: no report event", name)
		}
		if run.Report.AttributedUW != run.Report.PowerUW {
			t.Errorf("%s: attributed %.9f != report %.9f", name, run.Report.AttributedUW, run.Report.PowerUW)
		}
	}
	ref, _ := journal.ReadRunFile(filepath.Join(dir, "x2-ref.jsonl"))
	if ref.Header.Stage != "reference" {
		t.Errorf("reference stage = %q", ref.Header.Stage)
	}
	if got := ref.Header.Method; got != "I" {
		t.Errorf("reference method = %q", got)
	}

	// The journaled suite must agree with a plain run: journaling is
	// observation, never perturbation.
	plain, err := RunSuite(context.Background(), methods, core.Options{Workers: 2}, []string{"x2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods {
		if rows[0].Results[m] != plain[0].Results[m] {
			t.Errorf("method %v: journaled %+v != plain %+v", m, rows[0].Results[m], plain[0].Results[m])
		}
	}

	// Fingerprint counters match the journal event totals.
	sn := sc.Snapshot()
	var nodes, sites int
	for _, name := range want {
		run, _ := journal.ReadRunFile(filepath.Join(dir, name))
		nodes += run.Counts[journal.TypeDecompNode]
		sites += run.Counts[journal.TypeMapSite]
	}
	if got := sn.Counters["decomp.nodes_planned"]; got != int64(nodes) {
		t.Errorf("decomp.nodes_planned = %d, journals hold %d decomp.node events", got, nodes)
	}
	if got := sn.Counters["mapper.sites_selected"]; got != int64(sites) {
		t.Errorf("mapper.sites_selected = %d, journals hold %d map.site events", got, sites)
	}
}

// TestRunJournalCrossCheck checks the journal of a single-method,
// single-worker suite against the scope's counters of the same run: one
// file for the reference run and one for the method, one decomp.node
// event per planned node and one map.site event per selected gate. With
// the method's file gone the totals no longer agree, so the agreement is
// not vacuous.
func TestRunJournalCrossCheck(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New(obs.Config{})
	if _, err := RunSuiteJournaled(context.Background(), []core.Method{core.MethodI},
		core.Options{Obs: sc, Workers: 1}, []string{"x2"}, JournalConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// totals sums the decomp.node and map.site events of every journal in dir.
	totals := func() (files int, nodes, sites int64) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".jsonl" {
				continue
			}
			run, err := journal.ReadRunFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			files++
			nodes += int64(run.Counts[journal.TypeDecompNode])
			sites += int64(run.Counts[journal.TypeMapSite])
		}
		return files, nodes, sites
	}
	sn := sc.Snapshot()
	planned, selected := sn.Counters["decomp.nodes_planned"], sn.Counters["mapper.sites_selected"]
	if selected <= 0 {
		t.Fatalf("mapper.sites_selected = %d, want > 0", selected)
	}
	files, nodes, sites := totals()
	if files != 2 { // x2-ref.jsonl + x2-I.jsonl
		t.Errorf("journal dir holds %d .jsonl files, want 2", files)
	}
	if nodes != planned || sites != selected {
		t.Errorf("journals hold %d decomp.node / %d map.site events, counters %d / %d", nodes, sites, planned, selected)
	}
	if err := os.Remove(filepath.Join(dir, "x2-I.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, nodes, sites = totals(); nodes == planned && sites == selected {
		t.Error("journal totals still match the counters with x2-I.jsonl missing")
	}
}
