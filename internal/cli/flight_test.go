package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermap/internal/obs"
)

// TestPowerestFlightRecordOnFailure is the acceptance scenario for the
// flight recorder: an induced exact-BDD node-limit failure must leave a
// parseable flight-record JSON carrying the failing phase's spans, the last
// runtime samples, and the typed node-limit event — without the operator
// asking for anything beyond -flight.
func TestPowerestFlightRecordOnFailure(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	var out, errOut bytes.Buffer
	err := Powerest([]string{
		"-circuit", "s344", "-bdd-limit", "64", "-activity", "exact",
		"-flight", dump, "-sample-interval", "10ms",
	}, &out, &errOut)
	if err == nil {
		t.Fatal("64-node BDD limit on s344 did not fail")
	}

	f, ferr := os.Open(dump)
	if ferr != nil {
		t.Fatalf("no flight record despite failure: %v\nstderr:\n%s", ferr, errOut.String())
	}
	defer f.Close()
	var fr obs.FlightRecord
	if err := json.NewDecoder(f).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.Schema != obs.FlightSchemaVersion || fr.Reason != "powerest.annotate" {
		t.Errorf("record header wrong: schema=%d reason=%q", fr.Schema, fr.Reason)
	}
	if fr.Error == "" || !strings.Contains(fr.Error, "node limit") {
		t.Errorf("record error does not name the node limit: %q", fr.Error)
	}
	if nl, ok := fr.Attrs["node_limit"].(bool); !ok || !nl {
		t.Errorf("typed node_limit attr missing: %+v", fr.Attrs)
	}
	if fr.Attrs["circuit"] != "s344" {
		t.Errorf("circuit attr missing: %+v", fr.Attrs)
	}
	var sawAnnotate bool
	for _, sp := range fr.Spans {
		if strings.HasPrefix(sp.Name, "sim.annotate") {
			sawAnnotate = true
		}
	}
	if !sawAnnotate {
		t.Errorf("failing phase's span missing from record: %+v", fr.Spans)
	}
	if len(fr.RuntimeSamples) == 0 {
		t.Error("no runtime samples in record despite -sample-interval")
	}
	if n := len(fr.Logs); n == 0 || fr.Logs[n-1].Level != "ERROR" {
		t.Errorf("log tail does not end with the failure record: %+v", fr.Logs)
	}
	if fr.Health == nil {
		t.Error("health verdict missing from record")
	}
}

// TestPowerestBudgetBreach checks the -budget flag end to end: a 1ns
// latency budget on the exact-annotation phase breaches on a successful
// run, lands in the stats snapshot, and does not change the exit status
// (budgets degrade /healthz; they do not abort CLI runs).
func TestPowerestBudgetBreach(t *testing.T) {
	dir := t.TempDir()
	stats := filepath.Join(dir, "stats.json")
	var out, errOut bytes.Buffer
	err := Powerest([]string{
		"-circuit", "cm42a", "-budget", "sim.annotate-exact=1ns",
		"-stats", "-stats-out", stats,
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("budgeted run failed: %v\n%s", err, errOut.String())
	}
	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"breaches"`) ||
		!strings.Contains(string(data), `"kind": "latency"`) {
		t.Errorf("snapshot does not carry the budget breach:\n%s", data)
	}
}

func TestObsFlagsBadBudget(t *testing.T) {
	var out, errOut bytes.Buffer
	err := Powerest([]string{"-circuit", "cm42a", "-budget", "nonsense"}, &out, &errOut)
	if err == nil {
		t.Fatal("malformed -budget accepted")
	}
}

// TestPmapLogFlags smoke-tests the uniform logging satellite: -log-json -v
// must emit JSON records stamped with the run ID on stderr.
func TestPmapLogFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	err := Pmap([]string{
		"-circuit", "cm42a", "-method", "I", "-v", "-log-json", "-run-id", "logtest",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("pmap -log-json: %v\n%s", err, errOut.String())
	}
	text := errOut.String()
	if !strings.Contains(text, `"run_id":"logtest"`) {
		t.Errorf("JSON log records not stamped with run ID:\n%s", text)
	}
	if !strings.Contains(text, `"msg":"phase"`) {
		t.Errorf("no phase records in -v JSON log output:\n%s", text)
	}
}
