package obs

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler returns an http.Handler exposing the scope's live telemetry:
//
//	/metrics       Prometheus text exposition (scraped snapshot)
//	/snapshot      the full JSON snapshot (spans + metrics + runtime samples)
//	/trace         Chrome/Perfetto trace-event JSON of the retained spans
//	/healthz       200 while healthy, 503 after a budget breach or during
//	               a sampler stall (JSON HealthStatus body)
//	/readyz        200 once the scope is serving and the sampler (if
//	               started) has produced a sample; 503 otherwise
//	/debug/flight  on-demand flight record (?last=1 returns the retained
//	               failure capture instead; 404 when none exists)
//	/debug/pprof/...  the standard Go profiling endpoints
//
// Every request snapshots the scope at that instant, so a scraping
// Prometheus sees current values while the flow runs. /snapshot and /trace
// honor Accept-Encoding: gzip (they are the large payloads). Safe on a nil
// scope (exports are empty but well-formed; health reports healthy).
func (s *Scope) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out, done := maybeGzip(w, r)
		defer done()
		s.Snapshot().WriteJSON(out)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out, done := maybeGzip(w, r)
		defer done()
		s.Snapshot().WriteTraceEvents(out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		s.writeHealth(w, "/healthz", h, h.Healthy)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		s.writeHealth(w, "/readyz", h, h.Ready)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		fl := s.Flight()
		var fr *FlightRecord
		if r.URL.Query().Get("last") != "" {
			if fr = fl.Last(); fr == nil {
				http.Error(w, "no failure capture retained", http.StatusNotFound)
				return
			}
		} else if fr = fl.Capture("on-demand", nil); fr == nil {
			// Nil scope: serve an empty but schema-valid record.
			fr = &FlightRecord{Schema: FlightSchemaVersion, Reason: "on-demand"}
		}
		w.Header().Set("Content-Type", "application/json")
		out, done := maybeGzip(w, r)
		defer done()
		fr.WriteJSON(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeHealth serves one health verdict. An Encode failure usually means
// the probe hung up mid-body (a truncated /healthz looks like a flapping
// service to an orchestrator), so it is logged instead of discarded.
func (s *Scope) writeHealth(w http.ResponseWriter, endpoint string, h HealthStatus, ok bool) {
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		s.LogError("health write failed", "endpoint", endpoint, "err", err)
	}
}

// LogError emits an error record through the scope's span logger (the
// shared -log-level/-log-json chain once the CLI installed it). Safe on a
// nil or logger-less scope.
func (s *Scope) LogError(msg string, args ...any) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	logger := s.tracer.logger
	s.tracer.mu.Unlock()
	if logger != nil {
		logger.Error(msg, args...)
	}
}

// maybeGzip wraps the response in a gzip writer when the client advertises
// support. The returned cleanup must run before the handler returns (it
// flushes the gzip trailer). The response varies on Accept-Encoding whether
// or not this client negotiated gzip, so the header is set unconditionally
// — otherwise an intermediary cache could hand the gzipped body to a
// client that never asked for it.
func maybeGzip(w http.ResponseWriter, r *http.Request) (io.Writer, func()) {
	w.Header().Add("Vary", "Accept-Encoding")
	if !acceptsGzip(r) {
		return w, func() {}
	}
	w.Header().Set("Content-Encoding", "gzip")
	gz := gzip.NewWriter(w)
	return gz, func() { gz.Close() }
}

func acceptsGzip(r *http.Request) bool {
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc = strings.TrimSpace(enc)
		if enc == "gzip" || strings.HasPrefix(enc, "gzip;") {
			return true
		}
	}
	return false
}
