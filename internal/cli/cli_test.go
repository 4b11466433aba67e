package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermap/internal/core"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
	"powermap/internal/obs"
)

func writeTempBlif(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.blif")
	text := `
.model clitest
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPmapList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"s208", "cm42a", "alu2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %s", want)
		}
	}
}

func TestPmapBlifFlow(t *testing.T) {
	path := writeTempBlif(t)
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-blif", path, "-method", "V", "-gates"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"circuit clitest", "mapped:", "gate list", "cell usage"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestPmapWriteAndDot(t *testing.T) {
	path := writeTempBlif(t)
	dir := t.TempDir()
	mapped := filepath.Join(dir, "m.blif")
	dot := filepath.Join(dir, "m.dot")
	var out, errOut bytes.Buffer
	err := Pmap([]string{"-blif", path, "-method", "IV", "-write", mapped, "-dot", dot, "-recover", "-glitch", "200"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mapped)
	if err != nil || !strings.Contains(string(data), ".gate") {
		t.Errorf("mapped BLIF not written: %v", err)
	}
	data, err = os.ReadFile(dot)
	if err != nil || !strings.Contains(string(data), "digraph") {
		t.Errorf("dot not written: %v", err)
	}
	if !strings.Contains(out.String(), "drive recovery") || !strings.Contains(out.String(), "glitch-aware") {
		t.Errorf("missing recovery/glitch lines:\n%s", out.String())
	}
}

// TestPmapVerifyModes runs pmap's default -verify (the internal/verify
// oracle over the optimized network, subject graph and mapped netlist)
// across the accounting and mapper modes that change what gets mapped or
// how it is priced.
func TestPmapVerifyModes(t *testing.T) {
	for _, mode := range [][]string{
		{"-method2"},
		{"-mapper", "tree"},
		{"-mapper", "cuts"},
		{"-mapper", "cuts", "-lut", "4"},
	} {
		var out, errOut bytes.Buffer
		args := append([]string{"-circuit", "cm42a"}, mode...)
		if err := Pmap(args, &out, &errOut); err != nil {
			t.Errorf("pmap %v: %v\n%s", mode, err, errOut.String())
		} else if !strings.Contains(out.String(), "mapped:") {
			t.Errorf("pmap %v: no mapped report:\n%s", mode, out.String())
		}
	}
}

func TestPmapErrors(t *testing.T) {
	cases := [][]string{
		{},                                      // no input
		{"-circuit", "bogus"},                   // unknown benchmark
		{"-circuit", "cm42a", "-method", "VII"}, // bad method
		{"-circuit", "cm42a", "-style", "ecl"},  // bad style
		{"-blif", "/nonexistent", "-circuit", "cm42a"}, // both inputs
		{"-circuit", "cm42a", "-activity", "sample"},   // powerest-only flag
		{"-circuit", "cm42a", "-vectors", "1024"},      // powerest-only flag
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if err := Pmap(args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestPmapRejectsNaNProbability: a NaN input probability is refused at the
// input boundary with an error naming the range, before any tree is built.
func TestPmapRejectsNaNProbability(t *testing.T) {
	var out, errOut bytes.Buffer
	err := Pmap([]string{"-circuit", "cm42a", "-prob", "NaN"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Fatalf("pmap -prob NaN: err = %v, want a probability-range error", err)
	}
}

// TestPmapRejectsNonFiniteLibrary: a -lib whose nand3 costs NaN area is
// refused at the input boundary with an error naming the cell and the
// field; accepted, a NaN-cost candidate never survives prune, so the run
// would succeed with nand3 silently left out.
func TestPmapRejectsNonFiniteLibrary(t *testing.T) {
	lib := "GATE inv1 16 O=!a; PIN * INV 1 999 0.4 0.9 0.4 0.9\n" +
		"GATE nand2 24 O=!(a*b); PIN * INV 1 999 0.45 0.9 0.45 0.9\n" +
		"GATE nand3 NaN O=!(a*b*c); PIN * INV 1.8 999 0.6 1 0.6 1\n"
	path := filepath.Join(t.TempDir(), "nan.genlib")
	if err := os.WriteFile(path, []byte(lib), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := Pmap([]string{"-circuit", "cm42a", "-method", "VI", "-lib", path}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "cell nand3: area NaN is not finite") {
		t.Fatalf("pmap -lib with a NaN area: err = %v, want an error naming nand3's area", err)
	}
}

// TestPmapRejectsOverflowingLibrary: finite genlib numbers whose sums
// overflow are refused at the input boundary too. Accepted, a 1e308
// input load makes DefaultLoad +Inf and every curve empty, and three
// 1e308 areas make the netlist's total area +Inf.
func TestPmapRejectsOverflowingLibrary(t *testing.T) {
	const inv1 = "GATE inv1 16 O=!a; PIN * INV 1.0 999 0.40 0.90 0.40 0.90\n"
	for _, c := range []struct{ lib, want string }{
		{inv1 + "GATE nand2 24 O=!(a*b); PIN * INV 1e308 999 0.45 0.90 0.45 0.90\n",
			"genlib: line 2: cell nand2: pin *: input-load 1e308 exceeds"},
		{inv1 + "GATE nand2 1e308 O=!(a*b); PIN * INV 1.0 999 0.45 0.90 0.45 0.90\n" +
			"GATE nand3 1e308 O=!(a*b*c); PIN * INV 1.8 999 0.60 1.00 0.60 1.00\n",
			"genlib: line 2: cell nand2: area 1e308 exceeds"},
	} {
		path := filepath.Join(t.TempDir(), "huge.genlib")
		if err := os.WriteFile(path, []byte(c.lib), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		err := Pmap([]string{"-circuit", "cm42a", "-method", "VI", "-lib", path}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("pmap -lib with a 1e308 number: err = %v, want containing %q", err, c.want)
		}
	}
}

// TestPmapRejectsBadEpsilonAndRelax: a non-finite -epsilon and a NaN or
// negative -relax fail the run with an error naming the flag, instead of
// silently turning off ε-merging or taking the fastest-point fallback.
func TestPmapRejectsBadEpsilonAndRelax(t *testing.T) {
	for _, args := range [][]string{
		{"-epsilon", "NaN"}, {"-epsilon", "Inf"}, {"-relax", "NaN"}, {"-relax", "-2"},
	} {
		var out, errOut bytes.Buffer
		err := Pmap(append([]string{"-circuit", "cm42a", "-verify=false"}, args...), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), args[0][1:]) {
			t.Errorf("pmap %v: err = %v, want an error naming %s", args, err, args[0])
		}
	}
}

// Flag-parse errors and usage must go to the error writer, never the
// primary output (so piped reports and -stats - stay machine-readable).
func TestPmapUsageGoesToErrWriter(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-definitely-not-a-flag"}, &out, &errOut); err == nil {
		t.Fatal("bad flag accepted")
	}
	if out.Len() != 0 {
		t.Errorf("flag error leaked to primary output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "flag") {
		t.Errorf("error writer missing usage/diagnostic:\n%s", errOut.String())
	}
}

// TestPmapStatsJSON is the observability golden test: a full run with
// -v -stats must emit phase spans to the error writer and a JSON snapshot
// with the expected phase names and nonzero counters from every
// instrumented package (decomp, mapper, bdd, timing).
func TestPmapStatsJSON(t *testing.T) {
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-circuit", "cm42a", "-method", "VI", "-v", "-stats", "-stats-out", statsPath}, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sn obs.Snapshot
	if err := json.NewDecoder(f).Decode(&sn); err != nil {
		t.Fatalf("stats file is not a valid snapshot: %v", err)
	}

	phases := map[string]bool{}
	for _, s := range sn.Spans {
		phases[s.Name] = true
		if s.DurationNs < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
	}
	for _, want := range []string{
		"quick-opt", "decompose", "map", "verify-netlist", "verify-source",
		"decomp.plan-trees", "decomp.slack-targets", "mapper.curves", "mapper.select",
		"timing.annotate",
	} {
		if !phases[want] {
			t.Errorf("snapshot missing phase span %q; have %v", want, phases)
		}
	}

	// At least one nonzero decomposition counter, and coverage from all
	// four instrumented packages.
	if sn.Counters["decomp.nodes_planned"] <= 0 {
		t.Errorf("decomp.nodes_planned = %d, want > 0", sn.Counters["decomp.nodes_planned"])
	}
	for _, prefix := range []string{"decomp.", "mapper.", "bdd.", "timing."} {
		found := false
		for name, v := range sn.Counters {
			if strings.HasPrefix(name, prefix) && v > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no nonzero counter with prefix %q in snapshot: %v", prefix, sn.Counters)
		}
	}

	// -v phase log lines arrive on the error writer via slog.
	for _, want := range []string{"phase", "decompose", "mapper.select"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("verbose log missing %q:\n%s", want, errOut.String())
		}
	}
	// The report itself stays clean on the primary writer.
	if strings.Contains(out.String(), "phase") {
		t.Errorf("phase logs leaked to primary output:\n%s", out.String())
	}
}

// -stats-out - writes the snapshot JSON to the primary writer after the
// report; with no -stats-out it defaults to the error writer.
func TestPmapStatsToStdout(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-circuit", "cm42a", "-stats", "-stats-out", "-"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(out.String(), "{")
	if idx < 0 {
		t.Fatalf("no JSON object in output:\n%s", out.String())
	}
	var sn obs.Snapshot
	if err := json.Unmarshal([]byte(out.String()[idx:]), &sn); err != nil {
		t.Fatalf("trailing JSON does not parse: %v", err)
	}
	if len(sn.Spans) == 0 {
		t.Error("snapshot has no spans")
	}
}

// With -stats and no -stats-out the snapshot goes to the error writer,
// keeping the primary report machine-readable.
func TestPmapStatsDefaultsToStderr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-circuit", "cm42a", "-stats"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"spans"`) {
		t.Errorf("snapshot leaked to primary output:\n%s", out.String())
	}
	idx := strings.Index(errOut.String(), "{")
	if idx < 0 {
		t.Fatalf("no JSON snapshot on the error writer:\n%s", errOut.String())
	}
	var sn obs.Snapshot
	if err := json.Unmarshal([]byte(errOut.String()[idx:]), &sn); err != nil {
		t.Fatalf("stderr snapshot does not parse: %v", err)
	}
	if len(sn.Spans) == 0 {
		t.Error("stderr snapshot has no spans")
	}
}

func TestPowerest(t *testing.T) {
	path := writeTempBlif(t)
	var out, errOut bytes.Buffer
	if err := Powerest([]string{"-blif", path, "-mc", "2000", "-nodes"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"total internal switching activity", "Monte-Carlo", "P(1)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := Powerest([]string{}, &out, &errOut); err == nil {
		t.Error("missing -blif accepted")
	}
}

func TestProfileFlags(t *testing.T) {
	path := writeTempBlif(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-blif", path, "-cpuprofile", cpu, "-memprofile", mem}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestTablesFigure1(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Tables([]string{"-table", "figure1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SR = 2.146") || !strings.Contains(out.String(), "SR = 2.412") {
		t.Errorf("figure1 output wrong:\n%s", out.String())
	}
}

func TestTablesTable1(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Tables([]string{"-table", "1", "-patterns", "30"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "numbers of input") {
		t.Errorf("table 1 output wrong:\n%s", out.String())
	}
}

func TestTablesSubsetSummary(t *testing.T) {
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	var out, errOut bytes.Buffer
	if err := Tables([]string{"-table", "summary", "-circuits", "cm42a,alu2", "-stats", "-stats-out", statsPath}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pd-map vs ad-map: power") {
		t.Errorf("summary output wrong:\n%s", out.String())
	}
	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sn obs.Snapshot
	if err := json.NewDecoder(f).Decode(&sn); err != nil {
		t.Fatalf("tables stats snapshot invalid: %v", err)
	}
	// 2 circuits x 6 methods: the suite's metrics accumulate in one scope.
	if sn.Counters["decomp.nodes_planned"] <= 0 {
		t.Errorf("suite snapshot missing decomposition counters: %v", sn.Counters)
	}
}

func TestTablesUnknownCircuit(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := Tables([]string{"-table", "2", "-circuits", "nope"}, &out, &errOut); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := core.ParseMethod("iii"); err != nil {
		t.Error("case-insensitive method rejected")
	}
	if _, err := huffman.ParseStyle("DOMINO-P"); err != nil {
		t.Error("case-insensitive style rejected")
	}
	// The shared -mapper/-lut bundle: -mapper tree selects the tree
	// backend, -lut implies cuts, and the LUT arity is range-checked before
	// any synthesis.
	resolve := func(args ...string) (mapper.Backend, int, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		m := addMapFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return m.resolve()
	}
	if b, _, err := resolve("-mapper", "tree"); err != nil || b != mapper.BackendTree {
		t.Errorf("-mapper tree: backend %v err %v", b, err)
	}
	if b, lut, err := resolve("-lut", "4"); err != nil || b != mapper.BackendCuts || lut != 4 {
		t.Errorf("-lut 4: backend %v lut %d err %v", b, lut, err)
	}
	for _, bad := range [][]string{{"-lut", "7"}, {"-lut", "1"}, {"-lut", "-1"}, {"-mapper", "dag", "-lut", "4"}} {
		if _, _, err := resolve(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestPmapTraceFile is the Perfetto acceptance test: -trace must produce
// a valid Chrome trace-event file with the pipeline's phase spans and the
// process/thread metadata Perfetto uses to name lanes.
func TestPmapTraceFile(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if err := Pmap([]string{"-circuit", "cm42a", "-method", "VI", "-trace", tracePath}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int64          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var processNamed bool
	phases := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ts == nil || *ev.Ts < 0 {
			t.Fatalf("event %q missing or negative ts", ev.Name)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				processNamed = true
			}
		case "X":
			if ev.Dur < 0 {
				t.Errorf("span %q has negative dur", ev.Name)
			}
			phases[ev.Name] = true
		case "i":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if !processNamed {
		t.Error("trace missing process_name metadata")
	}
	for _, want := range []string{"quick-opt", "decompose", "map", "mapper.curves"} {
		if !phases[want] {
			t.Errorf("trace missing phase %q; have %v", want, phases)
		}
	}
}
