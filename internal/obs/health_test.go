package obs

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in   string
		want Budget
	}{
		{"decompose=200ms", Budget{Phase: "decompose", MaxDur: 200 * time.Millisecond}},
		{"synthesize=50000nodes", Budget{Phase: "synthesize", MaxLiveNodes: 50000}},
		{"map=1s,20000nodes", Budget{Phase: "map", MaxDur: time.Second, MaxLiveNodes: 20000}},
		{" map = 1s , 20000nodes ", Budget{Phase: "map", MaxDur: time.Second, MaxLiveNodes: 20000}},
	}
	for _, c := range cases {
		got, err := ParseBudget(c.in)
		if err != nil {
			t.Errorf("ParseBudget(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBudget(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String() renders back into parseable flag syntax.
		back, err := ParseBudget(got.String())
		if err != nil || back != got {
			t.Errorf("Budget(%q).String() = %q does not round-trip: %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"", "decompose", "=1s", "p=", "p=0s", "p=-1s", "p=xnodes", "p=0nodes", "p=junk"} {
		if b, err := ParseBudget(bad); err == nil {
			t.Errorf("ParseBudget(%q) accepted as %+v", bad, b)
		}
	}
}

// breachedScope returns a scope whose "decompose" latency budget has
// provably breached (a 1ns ceiling against a real span).
func breachedScope(t *testing.T) *Scope {
	t.Helper()
	sc := New(Config{})
	sc.SetBudgets([]Budget{{Phase: "decompose", MaxDur: time.Nanosecond}})
	span := sc.Start("decompose")
	time.Sleep(time.Millisecond)
	span.End()
	if n := sc.BreachCount(); n == 0 {
		t.Fatal("1ns budget did not breach")
	}
	return sc
}

func TestBudgetBreachLedgerAndCounter(t *testing.T) {
	sc := breachedScope(t)
	br := sc.Breaches()
	if len(br) != 1 {
		t.Fatalf("breach ledger has %d entries, want 1", len(br))
	}
	b := br[0]
	if b.Phase != "decompose" || b.Kind != "latency" {
		t.Errorf("breach = %+v, want decompose/latency", b)
	}
	if b.Value <= b.Limit {
		t.Errorf("breach value %d not above limit %d", b.Value, b.Limit)
	}
	// Spans for unbudgeted phases never breach.
	other := sc.Start("map")
	other.End()
	if n := sc.BreachCount(); n != 1 {
		t.Errorf("unbudgeted span breached: count = %d", n)
	}
}

func TestLiveNodesBreach(t *testing.T) {
	sc := New(Config{})
	sc.SetBudgets([]Budget{{Phase: "synthesize", MaxLiveNodes: 100}})
	sc.Gauge(LiveNodesGauge).Set(250)
	span := sc.Start("synthesize")
	span.End()
	br := sc.Breaches()
	if len(br) != 1 || br[0].Kind != "live_nodes" {
		t.Fatalf("breaches = %+v, want one live_nodes breach", br)
	}
	if br[0].Value != 250 || br[0].Limit != 100 {
		t.Errorf("breach = %+v, want value 250 limit 100", br[0])
	}
}

// TestHealthzDegradesOnBreach is the acceptance check for the SLO layer:
// a budget breach flips /healthz from 200 to 503 while the breach shows up
// in the powermap_slo_breaches metric series; /readyz stays 200 (the
// process can still serve, the run just missed its SLO).
func TestHealthzDegradesOnBreach(t *testing.T) {
	sc := New(Config{})
	h := sc.Handler()
	get := func(path string) (int, []byte) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code, rr.Body.Bytes()
	}

	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz before breach = %d:\n%s", code, body)
	}
	var hs HealthStatus
	if err := json.Unmarshal(body, &hs); err != nil || !hs.Healthy {
		t.Fatalf("/healthz body not a healthy HealthStatus: %v\n%s", err, body)
	}

	sc.SetBudgets([]Budget{{Phase: "decompose", MaxDur: time.Nanosecond}})
	span := sc.Start("decompose")
	time.Sleep(time.Millisecond)
	span.End()

	code, body = get("/healthz")
	if code != 503 {
		t.Fatalf("/healthz after breach = %d, want 503:\n%s", code, body)
	}
	if err := json.Unmarshal(body, &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Healthy || hs.Breaches != 1 || len(hs.Reasons) == 0 {
		t.Errorf("degraded status not reported: %+v", hs)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz after breach = %d, want 200 (breaches are a liveness concern)", code)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(string(body), `powermap_slo_breaches{kind="latency",phase="decompose"} 1`) {
		t.Errorf("breach not visible in /metrics (%d):\n%s", code, body)
	}
}

func TestHealthSamplerStall(t *testing.T) {
	sc := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := sc.StartRuntimeSampler(ctx, time.Millisecond)
	if st := sc.Health(); !st.Ready || !st.SamplerStarted {
		t.Fatalf("first sample is synchronous, so a fresh sampler must be ready: %+v", st)
	}
	s.Stop()
	// With the sampler dead, the last sample ages past 3x the 1ms interval.
	time.Sleep(50 * time.Millisecond)
	st := sc.Health()
	if !st.SamplerStalled || st.Healthy {
		t.Errorf("dead sampler not reported as a stall: %+v", st)
	}
}

// TestSpanRingWrapKeepsPhaseTimeAndHealth: a wrapped span ring loses only
// old span detail. Phase time is recorded at Span.End, and health does not
// degrade however many spans the ring drops between probes.
func TestSpanRingWrapKeepsPhaseTimeAndHealth(t *testing.T) {
	sc := New(Config{MaxSpans: 2})
	sc.Health()
	var want float64
	for i := 0; i < 5; i++ {
		want += sc.Start("s").End().Seconds()
	}
	for probe := 1; probe <= 2; probe++ {
		if st := sc.Health(); !st.Healthy || st.SpansDropped != 3 {
			t.Errorf("probe %d after the ring wrapped: %+v, want healthy with 3 spans dropped", probe, st)
		}
	}
	st := sc.Snapshot().Histograms[`phase_seconds{phase="s"}`]
	if st.Count != 5 || st.Sum != want {
		t.Errorf("phase_seconds{phase=\"s\"} count/sum = %d/%v, want 5/%v", st.Count, st.Sum, want)
	}
	// A quote in the span name is escaped in the series key.
	sc.Start(`q"x`).End()
	if st := sc.Snapshot().Histograms[`phase_seconds{phase="q\"x"}`]; st.Count != 1 {
		t.Errorf(`phase_seconds{phase="q\"x"} count = %d, want 1`, st.Count)
	}
}

func TestHealthNilScope(t *testing.T) {
	var sc *Scope
	if st := sc.Health(); !st.Healthy || !st.Ready {
		t.Errorf("nil scope must report healthy+ready: %+v", st)
	}
	sc.SetBudgets([]Budget{{Phase: "p", MaxDur: time.Second}}) // must not panic
	if sc.Budgets() != nil || sc.Breaches() != nil || sc.BreachCount() != 0 {
		t.Error("nil scope has SLO state")
	}
}

// TestServeGzip checks the satellite fix: /trace and /snapshot honor
// Accept-Encoding: gzip with the correct Content-Type, and the compressed
// payload inflates to the same valid JSON an identity request returns.
func TestServeGzip(t *testing.T) {
	sc := New(Config{})
	sc.Start("decompose").End()
	sc.Counter("decomp.nodes_planned").Add(3)
	h := sc.Handler()

	for _, path := range []string{"/trace", "/snapshot", "/debug/flight"} {
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("Accept-Encoding", "gzip, deflate")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
		if ce := rr.Header().Get("Content-Encoding"); ce != "gzip" {
			t.Fatalf("%s Content-Encoding = %q, want gzip", path, ce)
		}
		if v := rr.Header().Get("Vary"); v != "Accept-Encoding" {
			t.Errorf("%s Vary = %q, want Accept-Encoding", path, v)
		}
		zr, err := gzip.NewReader(rr.Body)
		if err != nil {
			t.Fatalf("%s body is not gzip: %v", path, err)
		}
		inflated, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s inflate: %v", path, err)
		}
		if !json.Valid(inflated) {
			t.Errorf("%s inflated body is not JSON:\n%s", path, inflated)
		}

		// The identity request must stay uncompressed.
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if ce := rr.Header().Get("Content-Encoding"); ce != "" {
			t.Errorf("%s without Accept-Encoding got Content-Encoding %q", path, ce)
		}
		// The Vary header must be present even on the identity response, or
		// a shared cache that first saw an identity client would later serve
		// the uncompressed body to everyone (and vice versa).
		if v := rr.Header().Get("Vary"); v != "Accept-Encoding" {
			t.Errorf("%s identity response Vary = %q, want Accept-Encoding", path, v)
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Errorf("%s identity body is not JSON:\n%s", path, rr.Body.String())
		}
	}
}

// TestDebugFlightEndpoint checks both modes: ?last=1 serves only a retained
// failure capture (404 before one exists), and the bare path captures
// on-demand.
func TestDebugFlightEndpoint(t *testing.T) {
	sc := New(Config{RunID: "run-df"})
	sc.Start("map").End()
	h := sc.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?last=1", nil))
	if rr.Code != 404 {
		t.Fatalf("?last=1 with no failure = %d, want 404", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("on-demand capture = %d", rr.Code)
	}
	fr, err := ParseFlightRecord(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Reason != "on-demand" || fr.RunID != "run-df" || len(fr.Spans) != 1 {
		t.Errorf("on-demand record wrong: reason=%q run=%q spans=%d", fr.Reason, fr.RunID, len(fr.Spans))
	}

	sc.Flight().CaptureFailure("core.synthesize", io.ErrUnexpectedEOF)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?last=1", nil))
	if rr.Code != 200 {
		t.Fatalf("?last=1 after failure = %d", rr.Code)
	}
	if fr, err = ParseFlightRecord(rr.Body); err != nil || fr.Reason != "core.synthesize" {
		t.Errorf("retained capture wrong: %v, %+v", err, fr)
	}
}

// brokenWriter fails every Write, simulating a health probe that hung up
// mid-body.
type brokenWriter struct {
	header http.Header
	code   int
}

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}
func (b *brokenWriter) WriteHeader(code int)      { b.code = code }
func (b *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("peer hung up") }

// TestWriteHealthLogsEncodeFailure checks the satellite fix: a failed
// health-body encode is surfaced through the scope's slog handler instead
// of being silently discarded.
func TestWriteHealthLogsEncodeFailure(t *testing.T) {
	sc := New(Config{})
	var logged bytes.Buffer
	sc.SetSpanLogger(slog.New(slog.NewTextHandler(&logged, nil)))

	sc.writeHealth(&brokenWriter{}, "/healthz", sc.Health(), true)
	out := logged.String()
	if !strings.Contains(out, "health write failed") || !strings.Contains(out, "peer hung up") {
		t.Errorf("encode failure not logged; log output:\n%s", out)
	}

	// A healthy write logs nothing, and a logger-less or nil scope must not
	// panic on the failure path.
	logged.Reset()
	rr := httptest.NewRecorder()
	sc.writeHealth(rr, "/healthz", sc.Health(), true)
	if logged.Len() != 0 {
		t.Errorf("successful write logged: %s", logged.String())
	}
	New(Config{}).writeHealth(&brokenWriter{}, "/healthz", HealthStatus{}, false)
	var nilScope *Scope
	nilScope.LogError("must not panic")
}
