package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHistoryFromManifest(t *testing.T) {
	m := &Manifest{
		RunID:  "r1",
		Date:   "2026-08-07",
		GitRev: "abcdef1234567890",
		WallNs: 120_000_000,
		Phases: map[string]PhaseStat{
			"decompose": {Spans: 3, WallNs: 50_000_000},
			"map":       {Spans: 3, WallNs: 70_000_000},
		},
		Metrics: map[string]float64{
			"bdd.wide_peak_live_nodes":         4200,
			"bdd.wide_peak_live_nodes_reorder": 3500,
			"decomp.nodes_planned":             99, // not a trend metric: dropped
		},
	}
	e := HistoryFromManifest(m)
	if e.Schema != HistorySchemaVersion || e.RunID != "r1" || e.WallNs != 120_000_000 {
		t.Errorf("entry header wrong: %+v", e)
	}
	if e.Phases["map"] != 70_000_000 || e.Phases["decompose"] != 50_000_000 {
		t.Errorf("phase wall times not flattened: %+v", e.Phases)
	}
	if e.Metrics["bdd.wide_peak_live_nodes"] != 4200 || e.Metrics["bdd.wide_peak_live_nodes_reorder"] != 3500 {
		t.Errorf("trend metrics not copied: %+v", e.Metrics)
	}
	if _, ok := e.Metrics["decomp.nodes_planned"]; ok {
		t.Error("non-trend metric leaked into the ledger entry")
	}
}

func TestHistoryLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	entries := []HistoryEntry{
		{Schema: HistorySchemaVersion, RunID: "a", WallNs: 100, Phases: map[string]int64{"map": 60}},
		{Schema: HistorySchemaVersion, RunID: "b", WallNs: 110,
			Metrics: map[string]float64{"bdd.wide_peak_live_nodes_reorder": 2.0}},
	}
	for _, e := range entries {
		if err := AppendHistoryFile(path, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadHistoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].RunID != "a" || got[1].RunID != "b" {
		t.Fatalf("round trip = %+v", got)
	}
	if got[1].Metrics["bdd.wide_peak_live_nodes_reorder"] != 2.0 {
		t.Errorf("metrics lost in round trip: %+v", got[1])
	}

	// Blank lines are tolerated; a newer schema still parses (known fields
	// only), so old tooling reads ledgers written by future versions.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n{\"schema\": 99, \"run_id\": \"future\", \"wall_ns\": 7}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = ReadHistoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].RunID != "future" || got[2].Schema != 99 {
		t.Errorf("newer-schema entry not kept: %+v", got)
	}

	// A corrupt line fails with the file and line number in the error.
	if err := os.WriteFile(path, []byte("{\"schema\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHistoryFile(path); err == nil || !strings.Contains(err.Error(), ":2") {
		t.Errorf("corrupt line error does not name the line: %v", err)
	}
}

func TestFormatTrend(t *testing.T) {
	if got := FormatTrend(nil, 5); !strings.Contains(got, "no bench history") {
		t.Errorf("empty ledger rendering: %q", got)
	}
	entries := []HistoryEntry{
		{Date: "2026-08-01", GitRev: "1111111111111111", WallNs: 100_000_000,
			Metrics: map[string]float64{"bdd.wide_peak_live_nodes": 4000}},
		{Date: "2026-08-02", GitRev: "2222222", WallNs: 150_000_000,
			Metrics: map[string]float64{"bdd.wide_peak_live_nodes_reorder": 3000},
			Phases:  map[string]int64{"map": 90_000_000, "decompose": 40_000_000, "eval": 10_000_000}},
	}
	out := FormatTrend(entries, 5)
	for _, want := range []string{
		"| date | rev |",
		"| 2026-08-01 | 111111111 |", // rev truncated to 9 chars
		"+50.0%",                     // delta vs previous run
		"4000",
		"3000",
		"slowest phases (latest run): map 90.0ms, decompose 40.0ms, eval 10.0ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trend table missing %q:\n%s", want, out)
		}
	}

	// The `last` window keeps the newest entries only.
	out = FormatTrend(entries, 1)
	if strings.Contains(out, "2026-08-01") {
		t.Errorf("last=1 window kept an older entry:\n%s", out)
	}
	if !strings.Contains(out, "| — |") {
		t.Errorf("windowed first row should have no delta:\n%s", out)
	}
}
