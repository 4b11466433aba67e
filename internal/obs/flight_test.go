package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenFlightRecord builds a fully deterministic flight record (fixed
// timestamps, sorted-key attribute maps) so the dump format can be compared
// byte-for-byte against the committed golden file.
func goldenFlightRecord() *FlightRecord {
	healthy := HealthStatus{
		Healthy:        false,
		Ready:          true,
		Breaches:       1,
		SamplerStarted: true,
		Reasons:        []string{"1 budget breach(es)"},
	}
	return &FlightRecord{
		Schema:           FlightSchemaVersion,
		RunID:            "run-golden",
		Reason:           "core.synthesize",
		Error:            "bdd: node limit 64 exceeded",
		CapturedUnixNano: 1_700_000_005_000_000_000,
		Attrs:            map[string]any{"circuit": "s344", "node_limit": true},
		Spans: []SpanRecord{
			{
				Name:          "decompose",
				StartUnixNano: 1_700_000_001_000_000_000,
				DurationNs:    2_000_000,
				Attrs:         map[string]any{"strategy": "bh-minpower"},
			},
			{
				Name:          "sim.annotate-exact",
				StartUnixNano: 1_700_000_002_000_000_000,
				DurationNs:    5_000_000,
				Events: []SpanEvent{
					{Name: "error", UnixNano: 1_700_000_002_004_000_000,
						Attrs: map[string]any{"node_limit": true}},
				},
			},
		},
		Logs: []FlightLogRecord{
			{UnixNano: 1_700_000_000_000_000_000, Level: "INFO", Message: "starting"},
			{UnixNano: 1_700_000_004_000_000_000, Level: "ERROR",
				Message: "failure: core.synthesize",
				Attrs:   map[string]any{"error": "bdd: node limit 64 exceeded"}},
		},
		RuntimeSamples: []RuntimeSample{
			{UnixNano: 1_700_000_003_000_000_000, HeapLiveBytes: 1 << 20,
				HeapGoalBytes: 4 << 20, Goroutines: 7, GCCycles: 3},
		},
		Breaches: []Breach{
			{Phase: "decompose", Kind: "latency",
				UnixNano: 1_700_000_001_500_000_000, Value: 2_000_000, Limit: 1_000_000},
		},
		Health: &healthy,
	}
}

// TestFlightGolden pins the flight-record dump byte-for-byte. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/obs -run FlightGolden.
func TestFlightGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenFlightRecord().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "flight_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("flight dump drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}

func TestFlightRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenFlightRecord().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var fr FlightRecord
	if err := json.NewDecoder(&buf).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.Schema != FlightSchemaVersion || fr.Reason != "core.synthesize" {
		t.Errorf("round trip lost header: schema=%d reason=%q", fr.Schema, fr.Reason)
	}
	if len(fr.Spans) != 2 || fr.Spans[1].Name != "sim.annotate-exact" {
		t.Errorf("round trip lost spans: %+v", fr.Spans)
	}
	if len(fr.Logs) != 2 || fr.Logs[1].Level != "ERROR" {
		t.Errorf("round trip lost logs: %+v", fr.Logs)
	}
	if fr.Health == nil || fr.Health.Healthy {
		t.Errorf("round trip lost health: %+v", fr.Health)
	}
	if nl, ok := fr.Attrs["node_limit"].(bool); !ok || !nl {
		t.Errorf("round trip lost node_limit attr: %+v", fr.Attrs)
	}
}

// TestCaptureFailure checks the black-box assembly path: the record carries
// the span tail, a synthetic trailing ERROR log record, the health verdict,
// and is retained as Last(); the auto-dump file holds the FIRST failure even
// when later failures (cancellation cascades) follow.
func TestCaptureFailure(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	sc := New(Config{RunID: "run-cf"})
	sc.Flight().SetAutoDump(dump)
	if got := sc.Flight().dump; got != dump {
		t.Fatalf("auto-dump path = %q, want %q", got, dump)
	}
	span := sc.Start("decompose")
	span.End()

	fr := sc.Flight().CaptureFailure("core.synthesize",
		errors.New("node limit exceeded"), "circuit", "s344", "node_limit", true)
	if fr == nil {
		t.Fatal("CaptureFailure returned nil on a live scope")
	}
	if fr.RunID != "run-cf" || fr.Error != "node limit exceeded" {
		t.Errorf("record header wrong: %+v", fr)
	}
	if len(fr.Spans) != 1 || fr.Spans[0].Name != "decompose" {
		t.Errorf("span tail missing: %+v", fr.Spans)
	}
	if n := len(fr.Logs); n == 0 || fr.Logs[n-1].Message != "failure: core.synthesize" ||
		fr.Logs[n-1].Level != "ERROR" {
		t.Errorf("log tail does not end with the failure record: %+v", fr.Logs)
	}
	if fr.Health == nil {
		t.Error("health verdict missing from failure capture")
	}
	if sc.Flight().Last() != fr {
		t.Error("failure capture not retained as Last()")
	}

	// A second failure must not overwrite the dumped root cause.
	sc.Flight().CaptureFailure("eval.run_suite", errors.New("context canceled"))
	f, err := os.Open(dump)
	if err != nil {
		t.Fatalf("auto-dump file missing: %v", err)
	}
	defer f.Close()
	var dumped FlightRecord
	if err := json.NewDecoder(f).Decode(&dumped); err != nil {
		t.Fatal(err)
	}
	if dumped.Reason != "core.synthesize" {
		t.Errorf("auto-dump holds %q, want the first failure core.synthesize", dumped.Reason)
	}
	// Last() always follows the newest failure, even though the dump froze.
	if last := sc.Flight().Last(); last.Reason != "eval.run_suite" {
		t.Errorf("Last() = %q, want the newest failure", last.Reason)
	}
}

func TestFlightLogRingWraps(t *testing.T) {
	sc := New(Config{})
	fl := sc.Flight()
	for i := 0; i < defaultFlightLogs+10; i++ {
		fl.addLog(FlightLogRecord{UnixNano: int64(i), Message: fmt.Sprintf("m%d", i)})
	}
	tail := fl.logTail()
	if len(tail) != defaultFlightLogs {
		t.Fatalf("ring holds %d records, want %d", len(tail), defaultFlightLogs)
	}
	if tail[0].Message != "m10" || tail[len(tail)-1].Message != fmt.Sprintf("m%d", defaultFlightLogs+9) {
		t.Errorf("ring not oldest-first after wrap: first=%q last=%q",
			tail[0].Message, tail[len(tail)-1].Message)
	}
}

// TestFlightLogHandlerTee checks the tee contract: every record lands in
// the flight ring regardless of level, while the wrapped console handler
// only sees records it accepts; context labels stamp the captured copy.
func TestFlightLogHandlerTee(t *testing.T) {
	sc := New(Config{})
	var console bytes.Buffer
	next := slog.NewTextHandler(&console, &slog.HandlerOptions{Level: slog.LevelWarn})
	logger := slog.New(sc.Flight().LogHandler(next))

	ctx := WithLabels(context.Background(), "circuit", "s344", "method", "I")
	logger.Log(ctx, slog.LevelDebug, "quiet detail", "k", "v")
	logger.WarnContext(ctx, "loud problem")

	tail := sc.Flight().logTail()
	if len(tail) != 2 {
		t.Fatalf("flight ring holds %d records, want both levels captured", len(tail))
	}
	if tail[0].Attrs["circuit"] != "s344" || tail[0].Attrs["method"] != "I" {
		t.Errorf("context labels not stamped on captured record: %+v", tail[0].Attrs)
	}
	out := console.String()
	if strings.Contains(out, "quiet detail") {
		t.Errorf("debug record leaked past the warn-level console handler:\n%s", out)
	}
	if !strings.Contains(out, "loud problem") {
		t.Errorf("warn record not forwarded to the console handler:\n%s", out)
	}

	// WithAttrs/WithGroup propagate to both branches of the tee.
	slog.New(sc.Flight().LogHandler(next)).With("stage", "map").WithGroup("bdd").Error("boom", "nodes", 9)
	tail = sc.Flight().logTail()
	rec := tail[len(tail)-1]
	if rec.Attrs["stage"] != "map" {
		t.Errorf("WithAttrs attr missing from captured record: %+v", rec.Attrs)
	}
	if _, ok := rec.Attrs["bdd.nodes"]; !ok {
		t.Errorf("grouped attr not captured with group prefix: %+v", rec.Attrs)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var sc *Scope
	fl := sc.Flight()
	if fl != nil {
		t.Fatal("nil scope returned a live recorder")
	}
	fl.SetAutoDump("x") // must not panic
	if fl.Capture("r", nil) != nil || fl.CaptureFailure("r", errors.New("e")) != nil || fl.Last() != nil {
		t.Error("nil recorder captured something")
	}
	var console bytes.Buffer
	next := slog.NewTextHandler(&console, nil)
	if h := fl.LogHandler(next); h == nil {
		t.Error("nil recorder should pass the next handler through, got nil")
	}
}
