// Package obs is the pipeline-wide observability layer: structured phase
// spans (tracing, with attributes, events, and per-worker virtual tracks),
// a registry of named counters/gauges/fixed-bucket histograms refinable
// into labeled series, and a snapshot/export API producing JSON,
// Chrome/Perfetto trace-event JSON (WriteTraceEvents), or the Prometheus
// text exposition format (WritePrometheus, plus a live /metrics +
// /debug/pprof http.Handler via Scope.Handler). Aggregates are kept where
// they are recorded — each ended span observes its wall time into the
// phase_seconds histogram — so exporters only format them. It depends
// only on the standard library.
//
// A single *Scope is threaded through the flow (core → decomp, mapper,
// bdd, timing). Every entry point is safe on a nil receiver, so packages
// instrument unconditionally and a disabled flow pays only a nil check:
//
//	sc := opt.Obs                    // may be nil
//	span := sc.Start("decompose")    // no-op span when sc == nil
//	merges := sc.Counter("decomp.merge_evals")
//	...
//	merges.Add(1)                    // no-op on a nil *Counter
//	span.End()
//
// Hot loops should hoist Counter/Gauge/Histogram lookups out of the loop:
// the returned handles are either live (and concurrency-safe) or nil (and
// free), so the loop body never touches the registry map.
package obs

// Config configures a Scope.
type Config struct {
	// MaxSpans caps the completed-span ring buffer. Zero selects
	// DefaultMaxSpans; a negative value disables the cap (unbounded
	// growth — only sensible for short one-shot runs). Once the buffer is
	// full the oldest spans are overwritten and counted in SpansDropped;
	// only their detail is lost, since per-phase time is recorded into the
	// phase_seconds histograms as each span ends.
	MaxSpans int
	// RunID identifies the run this scope instruments. It is stamped into
	// snapshots and Perfetto trace metadata, and ties telemetry exports to
	// the decision journals written under the same ID. Empty leaves the
	// exports unstamped.
	RunID string
}

// Scope bundles a tracer, a metrics registry, a flight recorder, a
// runtime-sample ring and the health/SLO state for one flow run. The zero
// value is not useful; use New. A nil *Scope disables all instrumentation.
type Scope struct {
	tracer  tracer
	metrics Metrics
	runID   string
	rt      runtimeState
	health  healthState
	flight  *FlightRecorder
}

// New returns an enabled Scope.
func New(cfg Config) *Scope {
	s := &Scope{runID: cfg.RunID}
	s.tracer.spans.max = cfg.MaxSpans
	if cfg.MaxSpans == 0 {
		s.tracer.spans.max = DefaultMaxSpans
	}
	s.rt.samples.max = defaultMaxRuntimeSamples
	s.health.breaches.max = maxBreaches
	s.flight = &FlightRecorder{scope: s, logs: ring[FlightLogRecord]{max: defaultFlightLogs}}
	return s
}

// Enabled reports whether instrumentation is live.
func (s *Scope) Enabled() bool { return s != nil }

// RunID returns the run identifier the scope was configured with, or ""
// on a nil or unstamped scope.
func (s *Scope) RunID() string {
	if s == nil {
		return ""
	}
	return s.runID
}

// Metrics returns the scope's metrics registry, or nil on a nil scope.
func (s *Scope) Metrics() *Metrics {
	if s == nil {
		return nil
	}
	return &s.metrics
}

// Counter returns the named counter, or nil on a nil scope.
func (s *Scope) Counter(name string) *Counter { return s.Metrics().Counter(name) }

// Gauge returns the named gauge, or nil on a nil scope.
func (s *Scope) Gauge(name string) *Gauge { return s.Metrics().Gauge(name) }

// Histogram returns the named histogram, or nil on a nil scope.
func (s *Scope) Histogram(name string) *Histogram { return s.Metrics().Histogram(name) }
