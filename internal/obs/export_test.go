package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenSnapshot builds a fully deterministic snapshot (fixed timestamps,
// tracks, attributes, events) so exporter output can be compared
// byte-for-byte against committed golden files.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		Spans: []SpanRecord{
			{
				Name:          "decompose",
				StartUnixNano: 1_000_000_000,
				DurationNs:    2_500_000,
				Attrs:         map[string]any{"strategy": "bh-minpower", "circuit": "cm42a"},
				Events: []SpanEvent{
					{Name: "replan", UnixNano: 1_001_000_000, Attrs: map[string]any{"node": "n7"}},
				},
			},
			{
				Name:          "decomp.plan-trees",
				Parent:        "decompose",
				StartUnixNano: 1_000_200_000,
				DurationNs:    900_000,
			},
			{
				Name:          "mapper.levels.worker",
				Track:         2,
				StartUnixNano: 1_002_000_000,
				DurationNs:    1_200_000,
				Attrs:         map[string]any{"worker": int64(1), "items": int64(7)},
			},
		},
		Counters: map[string]int64{"decomp.nodes_planned": 10},
		Tracks:   map[int64]string{2: "mapper.levels/w1"},
	}
}

// TestPerfettoGolden pins the trace-event export byte-for-byte. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/obs -run Perfetto.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
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
		t.Errorf("trace export drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}

// TestPerfettoStructure validates a live scope's export against the
// trace-event format contract: parseable JSON, the required keys on every
// event, microsecond timestamps rebased to zero, metadata naming every
// used track, and parent attribution via args.
func TestPerfettoStructure(t *testing.T) {
	sc := New(Config{})
	ctx := WithScope(context.Background(), sc)
	outer := sc.StartCtx(ctx, "outer")
	inner := sc.StartCtx(ctx, "inner")
	inner.Event("checkpoint", "k", "v")
	inner.End()
	outer.End()
	wtid := sc.TrackFor("pool/w0")
	wspan := sc.StartCtx(WithTrack(ctx, wtid), "pool.worker")
	wspan.End()

	var buf bytes.Buffer
	if err := sc.Snapshot().WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace export is not valid JSON: %v\n%s", err, buf.String())
	}
	if tf.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tf.Unit)
	}
	var sawOuter, sawInnerParent, sawWorkerTrack, sawInstant bool
	threadNames := map[float64]string{}
	for _, ev := range tf.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		switch ph {
		case "M":
			if name == "thread_name" {
				args := ev["args"].(map[string]any)
				threadNames[ev["tid"].(float64)] = args["name"].(string)
			}
		case "X":
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Errorf("event %q has bad ts %v", name, ev["ts"])
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("event %q missing dur", name)
			}
			if name == "outer" {
				sawOuter = true
			}
			if name == "inner" {
				args, _ := ev["args"].(map[string]any)
				if args["parent"] == "outer" {
					sawInnerParent = true
				}
			}
			if name == "pool.worker" && ev["tid"].(float64) == float64(wtid) {
				sawWorkerTrack = true
			}
		case "i":
			if name == "checkpoint" {
				sawInstant = true
			}
		}
	}
	if !sawOuter || !sawInnerParent {
		t.Errorf("span events missing or unparented: outer=%v innerParent=%v", sawOuter, sawInnerParent)
	}
	if !sawWorkerTrack {
		t.Error("worker span not attributed to its virtual track")
	}
	if !sawInstant {
		t.Error("span event did not export as an instant event")
	}
	if got := threadNames[float64(wtid)]; got != "pool/w0" {
		t.Errorf("track %d thread_name = %q, want pool/w0 (have %v)", wtid, got, threadNames)
	}
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// scanPromExposition is a strict line-oriented parser of the text
// exposition format: every sample must follow a # TYPE header for its
// family, names and labels must match the Prometheus charset, and values
// must parse as floats. Returns family kind by name and sample count.
func scanPromExposition(t *testing.T, text string) (kinds map[string]string, samples int) {
	t.Helper()
	kinds = map[string]string{}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for _, line := range lines {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, kind := parts[2], parts[3]
			if !promNameRe.MatchString(name) {
				t.Fatalf("bad family name %q", name)
			}
			switch kind {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("bad family kind %q in %q", kind, line)
			}
			if _, dup := kinds[name]; dup {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			kinds[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comments allowed
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("sample %q value %q does not parse: %v", series, value, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unclosed label braces: %q", line)
			}
			name = series[:i]
			for _, pair := range splitPromLabels(t, series[i+1:len(series)-1]) {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					t.Fatalf("label without '=' in %q", line)
				}
				lname, lval := pair[:eq], pair[eq+1:]
				if !promLabelRe.MatchString(lname) {
					t.Fatalf("bad label name %q in %q", lname, line)
				}
				if len(lval) < 2 || lval[0] != '"' || lval[len(lval)-1] != '"' {
					t.Fatalf("unquoted label value %q in %q", lval, line)
				}
			}
		}
		if !promNameRe.MatchString(name) {
			t.Fatalf("bad metric name %q", name)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count"), "_bucket")
		if _, ok := kinds[family]; !ok {
			if _, ok := kinds[name]; !ok {
				t.Fatalf("sample %q has no preceding # TYPE", name)
			}
		}
		samples++
	}
	return kinds, samples
}

// splitPromLabels splits a label body at commas outside quotes.
func splitPromLabels(t *testing.T, body string) []string {
	t.Helper()
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		parts = append(parts, body[start:])
	}
	return parts
}

// checkHistogramSeries checks every histogram series of an exposition:
// its _bucket lines are cumulative in strictly increasing le and end with
// le="+Inf", whose count equals the series' _count. It returns the number
// of series checked.
func checkHistogramSeries(t *testing.T, text string) int {
	t.Helper()
	type buckets struct {
		le, cum float64
	}
	series := map[string]*buckets{}
	counts := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, _ := strconv.ParseFloat(line[sp+1:], 64)
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		if fam, ok := strings.CutSuffix(name, "_count"); ok {
			counts[fam+"{"+labels+"}"] = v
			continue
		}
		fam, ok := strings.CutSuffix(name, "_bucket")
		if !ok {
			continue
		}
		var rest []string
		le := math.NaN()
		for _, pair := range splitPromLabels(t, labels) {
			if q, ok := strings.CutPrefix(pair, "le="); ok {
				le, _ = strconv.ParseFloat(strings.Trim(q, `"`), 64)
			} else {
				rest = append(rest, pair)
			}
		}
		id := fam + "{" + strings.Join(rest, ",") + "}"
		b := series[id]
		if b == nil {
			b = &buckets{le: math.Inf(-1)}
			series[id] = b
		}
		if !(le > b.le) || v < b.cum {
			t.Errorf("%s: bucket le=%v count %v after le=%v count %v: not increasing and cumulative", id, le, v, b.le, b.cum)
		}
		b.le, b.cum = le, v
	}
	for id, b := range series {
		if !math.IsInf(b.le, 1) {
			t.Errorf("%s: last bucket le=%v, want +Inf", id, b.le)
		}
		if c, ok := counts[id]; !ok || c != b.cum {
			t.Errorf("%s: +Inf bucket %v, _count %v (present %v)", id, b.cum, c, ok)
		}
	}
	return len(series)
}

func TestPrometheusExposition(t *testing.T) {
	sc := New(Config{})
	sc.Counter("decomp.nodes_planned").Add(42)
	sc.Counter("eval.runs").With("circuit", "cm42a", "method", "VI").Inc()
	sc.Gauge("core.power_uw").Set(176.11)
	h := sc.Histogram("mapper.matches_per_node")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	span := sc.Start("map")
	span.End()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sc); err != nil {
		t.Fatal(err)
	}
	kinds, samples := scanPromExposition(t, buf.String())
	if kinds["powermap_decomp_nodes_planned"] != "counter" {
		t.Errorf("counter family missing: %v", kinds)
	}
	if kinds["powermap_core_power_uw"] != "gauge" {
		t.Errorf("gauge family missing: %v", kinds)
	}
	for _, fam := range []string{"powermap_mapper_matches_per_node", "powermap_phase_seconds"} {
		if kinds[fam] != "histogram" {
			t.Errorf("%s kind = %q, want histogram", fam, kinds[fam])
		}
	}
	// mapper.matches_per_node and phase="map".
	if n := checkHistogramSeries(t, buf.String()); n != 2 {
		t.Errorf("checked %d histogram series, want 2", n)
	}
	text := buf.String()
	for _, want := range []string{
		`powermap_eval_runs{circuit="cm42a",method="VI"} 1`,
		`powermap_mapper_matches_per_node_bucket{le="64"} 64`,
		`powermap_mapper_matches_per_node_bucket{le="+Inf"} 100`,
		`powermap_mapper_matches_per_node_sum 5050`,
		`powermap_mapper_matches_per_node_count 100`,
		`powermap_phase_seconds_bucket{phase="map",le="+Inf"} 1`,
		`powermap_phase_seconds_count{phase="map"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "quantile=") {
		t.Errorf("exposition still carries summary quantiles:\n%s", text)
	}
	if samples < 10 {
		t.Errorf("suspiciously few samples: %d", samples)
	}

	// Determinism: a second export of the same scope is byte-identical.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, sc); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("exposition is not deterministic across exports")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	sc := New(Config{})
	sc.Counter("decomp.nodes_planned").Add(7)
	span := sc.Start("decompose")
	span.End()

	srv := httptest.NewServer(sc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	scanPromExposition(t, string(body))
	if !strings.Contains(string(body), "powermap_decomp_nodes_planned 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	for _, path := range []string{"/snapshot", "/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !json.Valid(body) {
			t.Errorf("%s is not valid JSON:\n%s", path, body)
		}
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

func TestNilScopeExports(t *testing.T) {
	var sc *Scope
	var buf bytes.Buffer
	if err := sc.Snapshot().WriteTraceEvents(&buf); err != nil {
		t.Fatalf("nil-scope trace export: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil-scope trace is not JSON: %s", buf.String())
	}
	buf.Reset()
	if err := WritePrometheus(&buf, sc); err != nil {
		t.Fatalf("nil-scope prometheus export: %v", err)
	}
	srv := httptest.NewServer(sc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("nil-scope /metrics status = %d", resp.StatusCode)
	}
}
