package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// FlightSchemaVersion identifies the flight-record JSON layout. Bump it on
// any incompatible change so post-mortem tooling can reject records it
// does not understand instead of misreading them.
const FlightSchemaVersion = 1

// Flight-record ring bounds: the recorder is a post-mortem tail, not an
// archive, so each section keeps only the most recent window.
const (
	defaultFlightSpans   = 256
	defaultFlightLogs    = 256
	defaultFlightSamples = 64
)

// FlightLogRecord is one captured slog record as it appears in a flight
// record.
type FlightLogRecord struct {
	UnixNano int64          `json:"unix_nano"`
	Level    string         `json:"level"`
	Message  string         `json:"msg"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// FlightRecord is a self-contained post-mortem capture: the last spans,
// log records and runtime samples retained at the capture instant, plus
// the SLO breach ledger and the health status. It is schema-versioned.
type FlightRecord struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id,omitempty"`
	// Reason says what triggered the capture: a failing phase (e.g.
	// "core.synthesize"), "sigquit", or "on-demand" (/debug/flight).
	Reason           string            `json:"reason"`
	Error            string            `json:"error,omitempty"`
	CapturedUnixNano int64             `json:"captured_unix_nano"`
	Attrs            map[string]any    `json:"attrs,omitempty"`
	Spans            []SpanRecord      `json:"spans,omitempty"`
	Logs             []FlightLogRecord `json:"logs,omitempty"`
	RuntimeSamples   []RuntimeSample   `json:"runtime_samples,omitempty"`
	Breaches         []Breach          `json:"breaches,omitempty"`
	Health           *HealthStatus     `json:"health,omitempty"`
}

// WriteJSON writes the record as indented JSON.
func (fr *FlightRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fr)
}

// FlightRecorder is the scope's black box: a bounded ring of recent slog
// records plus, via the scope, the span ring, the runtime-sample ring and
// the breach ledger. Capture assembles those tails into a FlightRecord; a
// failure capture is kept as Last() (served by /debug/flight?last=1) and,
// when an auto-dump path is set, written to disk — first failure wins, so
// cascade cancellations never overwrite the root cause. All methods are
// nil-safe.
type FlightRecorder struct {
	scope *Scope

	mu     sync.Mutex
	logs   ring[FlightLogRecord]
	last   *FlightRecord
	dump   string // auto-dump destination ("" = off)
	dumped bool   // a failure record was already written to dump
}

// Flight returns the scope's flight recorder, or nil on a nil scope.
func (s *Scope) Flight() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.flight
}

// SetAutoDump arranges for the first failure capture to be written as JSON
// to path ("" disables). Safe on nil.
func (f *FlightRecorder) SetAutoDump(path string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.dump = path
	f.mu.Unlock()
}

// addLog appends one captured slog record to the bounded ring.
func (f *FlightRecorder) addLog(rec FlightLogRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.logs.push(rec)
	f.mu.Unlock()
}

// logTail returns the retained log records, oldest first.
func (f *FlightRecorder) logTail() []FlightLogRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logs.all()
}

// Capture assembles a FlightRecord from the scope's current tails. The
// optional alternating key/value pairs become record attributes. Returns
// nil on a nil recorder.
func (f *FlightRecorder) Capture(reason string, err error, kv ...any) *FlightRecord {
	if f == nil {
		return nil
	}
	s := f.scope
	fr := &FlightRecord{
		Schema:           FlightSchemaVersion,
		RunID:            s.RunID(),
		Reason:           reason,
		CapturedUnixNano: time.Now().UnixNano(),
		Logs:             f.logTail(),
		RuntimeSamples:   tail(s.RuntimeSamples(), defaultFlightSamples),
		Spans:            tail(s.Spans(), defaultFlightSpans),
		Breaches:         s.Breaches(),
	}
	h := s.Health()
	fr.Health = &h
	if err != nil {
		fr.Error = err.Error()
	}
	if len(kv) >= 2 {
		fr.Attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			fr.Attrs[fmt.Sprint(kv[i])] = normalizeAttr(kv[i+1])
		}
	}
	return fr
}

// CaptureFailure is Capture for an error path: the record is retained as
// Last() and — on the first failure only — written to the auto-dump path.
// It also appends a synthetic error-level log record carrying the failure,
// so the captured log tail always ends with the event that triggered it.
// Safe on nil; returns the captured record (nil on a nil recorder).
func (f *FlightRecorder) CaptureFailure(reason string, err error, kv ...any) *FlightRecord {
	if f == nil {
		return nil
	}
	lr := FlightLogRecord{
		UnixNano: time.Now().UnixNano(),
		Level:    slog.LevelError.String(),
		Message:  "failure: " + reason,
	}
	if err != nil || len(kv) >= 2 {
		lr.Attrs = make(map[string]any, 1+len(kv)/2)
		if err != nil {
			lr.Attrs["error"] = err.Error()
		}
		for i := 0; i+1 < len(kv); i += 2 {
			lr.Attrs[fmt.Sprint(kv[i])] = normalizeAttr(kv[i+1])
		}
	}
	f.addLog(lr)
	fr := f.Capture(reason, err, kv...)
	f.mu.Lock()
	f.last = fr
	dump, dumped := f.dump, f.dumped
	if dump != "" {
		f.dumped = true
	}
	f.mu.Unlock()
	if dump != "" && !dumped {
		if werr := writeFlightFile(dump, fr); werr != nil {
			// A failed post-mortem write must not mask the original error;
			// it is reported on stderr and nowhere else.
			fmt.Fprintf(os.Stderr, "obs: flight auto-dump: %v\n", werr)
		}
	}
	return fr
}

// Last returns the most recent failure capture (nil when none happened, or
// on a nil recorder).
func (f *FlightRecorder) Last() *FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

func writeFlightFile(path string, fr *FlightRecord) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fr.WriteJSON(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func tail[T any](s []T, n int) []T {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// LogHandler returns a slog.Handler that records every log record into the
// flight recorder's ring and forwards to next (which may be nil to capture
// only). The handler is what the CLI -log-level/-log-json flags install,
// so console logging and the black box see one stream. Safe on a nil
// recorder (returns next unchanged).
func (f *FlightRecorder) LogHandler(next slog.Handler) slog.Handler {
	if f == nil {
		return next
	}
	return &flightHandler{fr: f, next: next}
}

// flightHandler tees slog records into the flight ring. It captures at
// every level (the black box should hold more detail than the console) and
// forwards only records the wrapped handler accepts.
type flightHandler struct {
	fr    *FlightRecorder
	next  slog.Handler
	attrs []slog.Attr
	group string
}

func (h *flightHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return true
}

func (h *flightHandler) Handle(ctx context.Context, rec slog.Record) error {
	flr := FlightLogRecord{
		UnixNano: rec.Time.UnixNano(),
		Level:    rec.Level.String(),
		Message:  rec.Message,
	}
	n := rec.NumAttrs() + len(h.attrs)
	if labels := LabelsFrom(ctx); len(labels) > 0 {
		n += len(labels) / 2
	}
	if n > 0 {
		flr.Attrs = make(map[string]any, n)
		// Handler-level attrs were captured with their group prefix already
		// resolved at WithAttrs time (the open group only scopes attrs added
		// after it).
		for _, a := range h.attrs {
			flr.Attrs[a.Key] = normalizeAttr(a.Value.Any())
		}
		rec.Attrs(func(a slog.Attr) bool {
			flr.Attrs[h.key(a.Key)] = normalizeAttr(a.Value.Any())
			return true
		})
		// Context labels (circuit, method, stage in the eval suite) stamp
		// the captured record even when the console handler drops them.
		for labels := LabelsFrom(ctx); len(labels) >= 2; labels = labels[2:] {
			flr.Attrs[labels[0]] = labels[1]
		}
	}
	h.fr.addLog(flr)
	if h.next != nil && h.next.Enabled(ctx, rec.Level) {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

func (h *flightHandler) key(k string) string {
	if h.group == "" {
		return k
	}
	return h.group + "." + k
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := &flightHandler{fr: h.fr, group: h.group}
	nh.attrs = append([]slog.Attr(nil), h.attrs...)
	for _, a := range attrs {
		a.Key = h.key(a.Key)
		nh.attrs = append(nh.attrs, a)
	}
	if h.next != nil {
		nh.next = h.next.WithAttrs(attrs)
	}
	return nh
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	nh := &flightHandler{fr: h.fr, attrs: h.attrs, group: name}
	if h.group != "" {
		nh.group = h.group + "." + name
	}
	if h.next != nil {
		nh.next = h.next.WithGroup(name)
	}
	return nh
}
