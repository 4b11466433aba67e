package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"powermap/internal/obs"
)

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	if j.Enabled() {
		t.Fatal("nil journal reports Enabled")
	}
	if j.RunID() != "" {
		t.Fatal("nil journal has a run ID")
	}
	j.DecompNode(DecompNode{Node: "n"})
	j.MapSite(MapSite{Node: "n"})
	j.GatePower(GatePower{Signal: "n"})
	j.Report(Report{})
	j.DecompSummary(DecompSummary{})
	j.Event("x", nil)
	j.SetObs(obs.New(obs.Config{}))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf, Header{RunID: "r1", Circuit: "x2", Method: "II", Strategy: "minpower"})
	sc := obs.New(obs.Config{})
	j.SetObs(sc)
	j.DecompNode(DecompNode{
		Node: "g1", Tree: "huffman", Cubes: 2, Leaves: 4, Height: 2, MinHeight: 2,
		Inputs: []TreeLeaf{{Signal: "a", Prob: 0.5, Activity: 0.5}},
		Merges: []Merge{{Gate: "and", A: "a", B: "b", Prob: 0.25, Cost: 0.375}},
	})
	j.DecompSummary(DecompSummary{Nodes: 1, TotalActivity: 1.5, SubjectNodes: 7, Depth: 3})
	j.MapSite(MapSite{
		Node: "g1", Cell: "nand2", Matches: 3, CurvePoints: 2,
		Required: 1.2, Arrival: 1.0, Cost: 4, Load: 1.5,
		Why:        "min-cost point meeting required time",
		Candidates: []Candidate{{Cell: "nand2", Arrival: 1.0, Cost: 4, Chosen: true}},
	})
	j.GatePower(GatePower{Signal: "g1", Cell: "nand2", Load: 1.5, Activity: 0.375, PowerUW: 2.5})
	j.GatePower(GatePower{Signal: "a", Load: 1.0, Activity: 0.5, PowerUW: 1.25})
	j.Report(Report{Gates: 1, Area: 2, DelayNs: 1.0, PowerUW: 3.75, AttributedUW: 3.75})
	j.Event("seed", map[string]any{"seed": 42})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	run, err := ReadRun(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if run.Header.RunID != "r1" || run.Header.Schema != SchemaVersion || run.Header.Circuit != "x2" {
		t.Fatalf("header mismatch: %+v", run.Header)
	}
	if run.Header.Host.GoVersion == "" || run.Header.Host.OS == "" {
		t.Fatalf("host not stamped: %+v", run.Header.Host)
	}
	if len(run.Decomp) != 1 || run.Decomp[0].Node != "g1" || len(run.Decomp[0].Merges) != 1 {
		t.Fatalf("decomp events: %+v", run.Decomp)
	}
	if run.DecompSummary == nil || run.DecompSummary.SubjectNodes != 7 {
		t.Fatalf("decomp summary: %+v", run.DecompSummary)
	}
	if len(run.Sites) != 1 || run.Sites[0].Cell != "nand2" || !run.Sites[0].Candidates[0].Chosen {
		t.Fatalf("map sites: %+v", run.Sites)
	}
	if len(run.Gates) != 2 || run.Gates[1].Cell != "" {
		t.Fatalf("gate rows: %+v", run.Gates)
	}
	if run.Report == nil || run.Report.PowerUW != 3.75 {
		t.Fatalf("report: %+v", run.Report)
	}
	if len(run.Events) != 1 || run.Events[0].Name != "seed" {
		t.Fatalf("events: %+v", run.Events)
	}
	if run.Counts[TypeGatePower] != 2 || run.Counts[TypeMapSite] != 1 {
		t.Fatalf("counts: %+v", run.Counts)
	}
	if run.Site("g1") == nil || run.Gate("a") == nil || run.DecompNodeByName("g1") == nil {
		t.Fatal("lookup helpers failed")
	}

	// The writer's obs bridge agrees with the reader on every event type.
	sn := sc.Snapshot()
	for typ, n := range run.Counts {
		if got := sn.Counters[`journal.events{type="`+typ+`"}`]; got != int64(n) {
			t.Fatalf("obs bridge: journal.events{type=%s} = %d, reader saw %d", typ, got, n)
		}
	}
	if sn.Counters["journal.bytes"] <= 0 {
		t.Fatal("obs bridge: journal.bytes not counted")
	}
}

func TestSeqAndTypeTags(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf, Header{RunID: "r"})
	j.Event("a", nil)
	j.Event("b", map[string]any{"k": "v"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	for i, line := range lines {
		var env envelope
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if env.Seq != i {
			t.Fatalf("line %d has seq %d", i, env.Seq)
		}
	}
}

func TestCreateAndReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path, Header{Circuit: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if j.RunID() == "" {
		t.Fatal("no run ID generated")
	}
	j.Report(Report{Gates: 3})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if run.Report == nil || run.Report.Gates != 3 || run.Path != path {
		t.Fatalf("round trip: %+v", run)
	}
}

func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf, Header{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.GatePower(GatePower{Signal: "s", PowerUW: 1})
			}
		}()
	}
	wg.Wait()
	run, err := ReadRun(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Gates) != 400 {
		t.Fatalf("want 400 rows, got %d", len(run.Gates))
	}
}

// TestReadRejectsNewerSchema checks the schema gate on the header, which
// is the first non-empty line wherever it sits.
func TestReadRejectsNewerSchema(t *testing.T) {
	future := `{"type":"header","seq":0,"schema":99,"run_id":"x","host":{"os":"linux","arch":"amd64","cpus":1,"go_version":"go"}}` + "\n"
	for _, in := range []string{future, "\n" + future, "\r\n\n" + future} {
		if _, err := ReadRun(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "newer") {
			t.Errorf("ReadRun(%q) = %v, want a newer-schema error", in, err)
		}
	}
}

func TestReadRejectsEmptyStream(t *testing.T) {
	for _, in := range []string{"", "\n", "\n\n\r\n"} {
		if _, err := ReadRun(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "empty stream") {
			t.Errorf("ReadRun(%q) = %v, want an empty-stream error", in, err)
		}
	}
}

func TestReadSkipsUnknownEventTypes(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf, Header{RunID: "r"})
	j.Report(Report{Gates: 1})
	buf.WriteString(`{"type":"future.kind","seq":99,"payload":1}` + "\n")
	run, err := ReadRun(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if run.Counts["future.kind"] != 1 || run.Report == nil {
		t.Fatalf("unknown type handling: %+v", run.Counts)
	}
}

func TestDiffRuns(t *testing.T) {
	mk := func(runID string, gates []GatePower, sites []MapSite, decomp []DecompNode, rep Report) *Run {
		var buf bytes.Buffer
		j := New(&buf, Header{RunID: runID})
		for _, d := range decomp {
			j.DecompNode(d)
		}
		for _, s := range sites {
			j.MapSite(s)
		}
		for _, g := range gates {
			j.GatePower(g)
		}
		j.Report(rep)
		run, err := ReadRun(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a := mk("a",
		[]GatePower{{Signal: "g1", Cell: "nand2", PowerUW: 2}, {Signal: "g2", Cell: "inv", PowerUW: 1}, {Signal: "pi", PowerUW: 0.5}},
		[]MapSite{{Node: "g1", Cell: "nand2"}, {Node: "g2", Cell: "inv"}},
		[]DecompNode{{Node: "g1", Tree: "balanced", Height: 3}},
		Report{Gates: 2, PowerUW: 3.5, AttributedUW: 3.5})
	b := mk("b",
		[]GatePower{{Signal: "g1", Cell: "nand3", PowerUW: 1.25}, {Signal: "g3", Cell: "inv", PowerUW: 0.75}, {Signal: "pi", PowerUW: 0.5}},
		[]MapSite{{Node: "g1", Cell: "nand3"}, {Node: "g3", Cell: "inv"}},
		[]DecompNode{{Node: "g1", Tree: "huffman", Height: 4}},
		Report{Gates: 2, PowerUW: 2.5, AttributedUW: 2.5})

	d := DiffRuns(a, b)
	if d.PowerDelta != -1.0 {
		t.Fatalf("power delta = %v", d.PowerDelta)
	}
	if math.Abs(d.GateDeltaSum-d.PowerDelta) > 1e-12 {
		t.Fatalf("gate delta sum %v != power delta %v", d.GateDeltaSum, d.PowerDelta)
	}
	if len(d.Gates) != 4 {
		t.Fatalf("want 4 gate rows (union), got %d", len(d.Gates))
	}
	// Largest magnitude first: g2 (-1.0) before g1 (-0.75) and g3 (+0.75).
	if d.Gates[0].Signal != "g2" || d.Gates[0].OnlyIn != "a" {
		t.Fatalf("first delta: %+v", d.Gates[0])
	}
	var sawTree, sawCell bool
	for _, dec := range d.Decisions {
		if dec.Node == "g1" && dec.Kind == "tree" && strings.Contains(dec.B, "huffman") {
			sawTree = true
		}
		if dec.Node == "g1" && dec.Kind == "cell" && dec.A == "nand2" && dec.B == "nand3" {
			sawCell = true
		}
	}
	if !sawTree || !sawCell {
		t.Fatalf("decision deltas missing: %+v", d.Decisions)
	}
}

func TestNewRunID(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if len(a) != 12 || a == b {
		t.Fatalf("run IDs: %q %q", a, b)
	}
}
