package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	sc := New(Config{})
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sc.Counter("shared")
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := sc.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("concurrent counter = %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	sc := New(Config{MaxSpans: 16})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			h := sc.Histogram("shared")
			ctx := WithTrack(context.Background(), sc.TrackFor(fmt.Sprint("w", base)))
			for j := 0; j < 1000; j++ {
				h.Observe(float64(base + j))
				sc.StartCtx(ctx, "phase").End()
			}
		}(i)
	}
	wg.Wait()
	if got := sc.Histogram("shared").Stats().Count; got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
	// Spans ended concurrently all reach phase_seconds, whatever the ring kept.
	if got := sc.Snapshot().Histograms[`phase_seconds{phase="phase"}`].Count; got != 8000 {
		t.Errorf("concurrent phase_seconds count = %d, want 8000", got)
	}
}

func TestNilScopeNoOp(t *testing.T) {
	var sc *Scope // everything below must be a silent no-op
	if sc.Enabled() {
		t.Error("nil scope reports enabled")
	}
	span := sc.Start("phase")
	sc.Counter("c").Add(5)
	sc.Counter("c").Inc()
	sc.Gauge("g").Set(1.5)
	sc.Gauge("g").SetMax(2.5)
	sc.Histogram("h").Observe(3)
	if d := span.End(); d != 0 {
		t.Errorf("nil span duration = %v, want 0", d)
	}
	if v := sc.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := sc.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value = %v", v)
	}
	if st := sc.Histogram("h").Stats(); st.Count != 0 {
		t.Errorf("nil histogram stats = %+v", st)
	}
	if got := sc.Spans(); got != nil {
		t.Errorf("nil scope spans = %v", got)
	}
	sn := sc.Snapshot()
	if sn == nil || len(sn.Counters) != 0 || len(sn.Spans) != 0 {
		t.Errorf("nil scope snapshot = %+v", sn)
	}
	var buf bytes.Buffer
	if err := sn.WriteJSON(&buf); err != nil {
		t.Fatalf("nil-scope snapshot JSON: %v", err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	sc := New(Config{})
	h := sc.Histogram("lat")
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	st := h.Stats()
	if st.Count != 100 || st.Min != 1 || st.Max != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Sum-5050) > 1e-9 {
		t.Errorf("sum = %v, want 5050", st.Sum)
	}
	// Bounds 4^0..4^4 sit at indexes 10..14; a value equal to a bound
	// belongs to that bound's bucket (Prometheus "le").
	want := make([]uint64, len(bucketBounds))
	want[10], want[11], want[12], want[13], want[14] = 1, 3, 12, 48, 36 // 1 | 2-4 | 5-16 | 17-64 | 65-100
	if fmt.Sprint(st.Buckets) != fmt.Sprint(want) {
		t.Errorf("buckets = %v, want %v", st.Buckets, want)
	}
	// Quantiles are the upper bound of the bucket holding the rank.
	if st.P50 != 64 || st.P90 != 256 || st.P99 != 256 {
		t.Errorf("p50/p90/p99 = %v/%v/%v, want 64/256/256", st.P50, st.P90, st.P99)
	}

	// The layout's ends: below 4^-10 lands in the first bucket, above 4^17
	// and NaN in +Inf, whose rank reports the last finite bound.
	edge := sc.Histogram("edge")
	edge.Observe(1e-9)
	for _, v := range []float64{1e11, math.Inf(1), math.NaN()} {
		edge.Observe(v)
	}
	est := edge.Stats()
	if est.Buckets[0] != 1 || est.Buckets[len(bucketBounds)-1] != 3 {
		t.Errorf("edge buckets = %v, want 1 first and 3 in +Inf", est.Buckets)
	}
	if last := bucketBounds[len(bucketBounds)-2]; est.P99 != last || last != math.Pow(4, 17) {
		t.Errorf("+Inf-bucket p99 = %v, want 4^17", est.P99)
	}

	// runtime/metrics histograms go through the same rule: Buckets[i+1]
	// bounds Counts[i], reported in nanoseconds.
	rh := &metrics.Float64Histogram{Counts: []uint64{3, 0, 1}, Buckets: []float64{0, 1e-6, 1e-3, math.Inf(1)}}
	if p50, p99 := histQuantileNs(rh, 0.5), histQuantileNs(rh, 0.99); p50 != 1e3 || p99 != 1e6 {
		t.Errorf("runtime p50/p99 = %v/%v ns, want 1e3/1e6", p50, p99)
	}
}

func TestSpanNestingAndLogging(t *testing.T) {
	var logBuf bytes.Buffer
	sc := New(Config{})
	sc.SetSpanLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	outer := sc.Start("outer")
	inner := sc.Start("inner")
	inner.End()
	outer.End()
	spans := sc.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// End order: inner first.
	if spans[0].Name != "inner" || spans[0].Parent != "outer" {
		t.Errorf("inner span = %+v", spans[0])
	}
	if spans[1].Name != "outer" || spans[1].Parent != "" {
		t.Errorf("outer span = %+v", spans[1])
	}
	if spans[0].DurationNs < 0 || spans[0].StartUnixNano == 0 {
		t.Errorf("span timing not recorded: %+v", spans[0])
	}
	logged := logBuf.String()
	for _, want := range []string{"phase", "name=inner", "parent=outer", "name=outer"} {
		if !strings.Contains(logged, want) {
			t.Errorf("log output missing %q:\n%s", want, logged)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	sc := New(Config{})
	sp := sc.Start("decompose")
	sc.Start("plan-trees").End()
	sp.End()
	sc.Counter("decomp.merge_evals").Add(42)
	sc.Gauge("decomp.total_activity").Set(3.25)
	h := sc.Histogram("mapper.curve_points_per_node")
	h.Observe(4)
	h.Observe(8)

	sn := sc.Snapshot()
	var buf bytes.Buffer
	if err := sn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 2 || back.Spans[0].Name != "plan-trees" || back.Spans[0].Parent != "decompose" {
		t.Errorf("spans did not round-trip: %+v", back.Spans)
	}
	if back.Counters["decomp.merge_evals"] != 42 {
		t.Errorf("counter did not round-trip: %+v", back.Counters)
	}
	if back.Gauges["decomp.total_activity"] != 3.25 {
		t.Errorf("gauge did not round-trip: %+v", back.Gauges)
	}
	hs := back.Histograms["mapper.curve_points_per_node"]
	if hs.Count != 2 || hs.Sum != 12 || hs.Min != 4 || hs.Max != 8 {
		t.Errorf("histogram did not round-trip: %+v", hs)
	}
}

func TestGaugeSetMax(t *testing.T) {
	sc := New(Config{})
	g := sc.Gauge("depth")
	g.SetMax(3)
	g.SetMax(1)
	if got := g.Value(); got != 3 {
		t.Errorf("SetMax kept %v, want 3", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Errorf("SetMax kept %v, want 7", got)
	}
}

func TestMetricsHandleIdentity(t *testing.T) {
	sc := New(Config{})
	if sc.Counter("x") != sc.Counter("x") {
		t.Error("same counter name returned distinct handles")
	}
	if sc.Counter("x") == sc.Counter("y") {
		t.Error("distinct counter names returned the same handle")
	}
}
