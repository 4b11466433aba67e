package obs

import (
	"context"
	"fmt"
	"testing"
)

func TestSpanRingBuffer(t *testing.T) {
	sc := New(Config{MaxSpans: 4})
	for i := 0; i < 10; i++ {
		span := sc.Start(fmt.Sprintf("phase%d", i))
		span.End()
	}
	spans := sc.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Oldest-first: the ring keeps the newest 4 of 10.
	for i, sp := range spans {
		if want := fmt.Sprintf("phase%d", 6+i); sp.Name != want {
			t.Errorf("spans[%d] = %q, want %q", i, sp.Name, want)
		}
	}
	if got := sc.SpansDropped(); got != 6 {
		t.Errorf("SpansDropped = %d, want 6", got)
	}
	sn := sc.Snapshot()
	if sn.SpansDropped != 6 {
		t.Errorf("snapshot SpansDropped = %d, want 6", sn.SpansDropped)
	}
}

func TestSpanRingUnbounded(t *testing.T) {
	sc := New(Config{MaxSpans: -1})
	for i := 0; i < 100; i++ {
		sc.Start("p").End()
	}
	if got := len(sc.Spans()); got != 100 {
		t.Errorf("unbounded scope retained %d spans, want 100", got)
	}
	if got := sc.SpansDropped(); got != 0 {
		t.Errorf("unbounded scope dropped %d spans", got)
	}
}

func TestSpanAttrsAndEvents(t *testing.T) {
	sc := New(Config{})
	span := sc.Start("map")
	span.SetAttr("gates", 23).SetAttr("objective", "pd-map").SetAttr("ok", true).SetAttr("ratio", 0.5)
	span.Event("pass", "n", 2)
	span.End()
	spans := sc.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	sp := spans[0]
	if sp.Attrs["gates"] != int64(23) || sp.Attrs["objective"] != "pd-map" || sp.Attrs["ok"] != true || sp.Attrs["ratio"] != 0.5 {
		t.Errorf("attrs = %#v", sp.Attrs)
	}
	if len(sp.Events) != 1 || sp.Events[0].Name != "pass" || sp.Events[0].Attrs["n"] != int64(2) {
		t.Errorf("events = %#v", sp.Events)
	}
	// Nil-safety: chaining on a nil span must not panic.
	var nilSpan *Span
	nilSpan.SetAttr("k", 1).SetAttr("k2", 2)
	nilSpan.Event("e")
	nilSpan.End()
}

func TestTracksAndContext(t *testing.T) {
	sc := New(Config{})
	w0 := sc.TrackFor("pool/w0")
	w1 := sc.TrackFor("pool/w1")
	if w0 == 0 || w1 == 0 || w0 == w1 {
		t.Fatalf("track ids not distinct and nonzero: %d, %d", w0, w1)
	}
	if again := sc.TrackFor("pool/w0"); again != w0 {
		t.Errorf("TrackFor not stable: %d then %d", w0, again)
	}
	names := sc.TrackNames()
	if names[w0] != "pool/w0" || names[w1] != "pool/w1" {
		t.Errorf("track names = %v", names)
	}

	// Spans on different tracks nest independently: a span opened on the
	// worker track must not become the parent of a coordinator span.
	ctx := WithScope(context.Background(), sc)
	cw := sc.StartCtx(WithTrack(ctx, w0), "worker-span")
	co := sc.StartCtx(ctx, "coordinator-span")
	co.End()
	cw.End()
	byName := map[string]SpanRecord{}
	for _, sp := range sc.Spans() {
		byName[sp.Name] = sp
	}
	if p := byName["coordinator-span"].Parent; p != "" {
		t.Errorf("coordinator span parented to %q across tracks", p)
	}
	if tr := byName["worker-span"].Track; tr != w0 {
		t.Errorf("worker span track = %d, want %d", tr, w0)
	}

	// Labels from the context surface as span attributes.
	lctx := WithLabels(ctx, "circuit", "cm42a", "method", "VI")
	ls := sc.StartCtx(lctx, "labeled")
	ls.End()
	spans := sc.Spans()
	last := spans[len(spans)-1]
	if last.Attrs["circuit"] != "cm42a" || last.Attrs["method"] != "VI" {
		t.Errorf("labeled span attrs = %#v", last.Attrs)
	}

	// Nil scope: context helpers must be safe no-ops.
	var nilScope *Scope
	nctx := WithScope(context.Background(), nilScope)
	if got := ScopeFrom(nctx); got != nil {
		t.Errorf("ScopeFrom(nil-scope ctx) = %v", got)
	}
	nilScope.StartCtx(nctx, "x").End()
	if nilScope.TrackFor("t") != 0 {
		t.Error("nil scope allocated a track")
	}
}

func TestLabeledMetrics(t *testing.T) {
	sc := New(Config{})
	a := sc.Counter("eval.runs").With("method", "VI", "circuit", "cm42a")
	b := sc.Counter("eval.runs").With("circuit", "cm42a", "method", "VI")
	if a != b {
		t.Error("label order changed series identity")
	}
	a.Add(2)
	b.Inc()
	if got := a.Value(); got != 3 {
		t.Errorf("labeled counter value = %d, want 3", got)
	}
	// The unlabeled series is distinct.
	sc.Counter("eval.runs").Inc()
	sn := sc.Snapshot()
	if sn.Counters[`eval.runs{circuit="cm42a",method="VI"}`] != 3 {
		t.Errorf("snapshot missing labeled series: %v", sn.Counters)
	}
	if sn.Counters["eval.runs"] != 1 {
		t.Errorf("unlabeled series = %d, want 1", sn.Counters["eval.runs"])
	}

	// Escaping: quotes and backslashes in values must round-trip the
	// series key unambiguously.
	sc.Gauge("g").With("k", `a"b\c`).Set(1)
	if _, ok := sc.Snapshot().Gauges[`g{k="a\"b\\c"}`]; !ok {
		t.Errorf("escaped series key missing: %v", sc.Snapshot().Gauges)
	}

	// With on further refinement merges labels.
	sc.Counter("lat").With("stage", "map").With("circuit", "x2").Inc()
	if _, ok := sc.Snapshot().Counters[`lat{circuit="x2",stage="map"}`]; !ok {
		t.Errorf("merged-label counter missing: %v", sc.Snapshot().Counters)
	}

	// Nil safety.
	var nilC *Counter
	nilC.With("a", "b").Inc()
	var nilScope *Scope
	nilScope.Counter("c").With("a", "b").Add(1)
	nilScope.Gauge("g").With("a", "b").Set(1)
}
