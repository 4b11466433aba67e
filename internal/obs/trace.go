package obs

import (
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// DefaultMaxSpans is the span ring-buffer capacity used when
// Config.MaxSpans is zero. It is deliberately generous: a full six-method
// suite run records a few thousand spans, so nothing is dropped in normal
// one-shot use, while a long -serve process stays bounded.
const DefaultMaxSpans = 16384

// SpanEvent is a timestamped point-in-time annotation inside a span.
type SpanEvent struct {
	Name     string         `json:"name"`
	UnixNano int64          `json:"unix_nano"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// SpanRecord is one completed phase span as it appears in a snapshot.
type SpanRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Track is the virtual thread the span ran on: 0 is the coordinator
	// (the flow's own goroutine); worker-pool goroutines get tracks
	// allocated by TrackFor, so exporters can lay spans out side by side.
	Track int64 `json:"track,omitempty"`
	// StartUnixNano anchors the span on the wall clock.
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationNs is the measured wall time in nanoseconds.
	DurationNs int64 `json:"duration_ns"`
	// Attrs carries the span's attributes (scalar values only).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Events lists the span's point-in-time annotations.
	Events []SpanEvent `json:"events,omitempty"`
}

// Duration returns the span's wall time.
func (r SpanRecord) Duration() time.Duration { return time.Duration(r.DurationNs) }

// phaseSeconds is the histogram every ended span observes its wall time
// into, labeled by span name.
const phaseSeconds = "phase_seconds"

// tracer records phase spans. Parentage follows the start/end nesting
// order per track: a span started while another is open on the same track
// becomes its child. Completed spans live in a bounded ring so long-lived
// processes (-serve) never grow without bound; per-phase time lives in the
// phase_seconds histograms, which a wrapped ring does not touch.
type tracer struct {
	mu     sync.Mutex
	logger *slog.Logger
	stacks map[int64][]string
	spans  ring[SpanRecord]
	phases map[string]*Histogram // span name -> phase_seconds{phase=name}

	tracks    map[int64]string // track id -> display name
	trackByID map[string]int64 // display name -> track id
	nextTrack int64
}

// SetSpanLogger sets the logger that receives one record per completed
// span (phase name, parent, duration); without one, spans are still
// recorded for the snapshot. The CLI layer uses it to install the shared
// -log-level/-log-json handler chain (which tees into the flight recorder)
// after the scope — and with it the recorder — exists. Safe on nil.
func (s *Scope) SetSpanLogger(l *slog.Logger) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.tracer.logger = l
	s.tracer.mu.Unlock()
}

// Span is one in-flight phase. End it exactly once. A Span is owned by the
// goroutine that started it; SetAttr/Event are not safe for concurrent use
// on the same span. A nil *Span (from a nil scope) is a no-op.
type Span struct {
	scope  *Scope
	name   string
	parent string
	track  int64
	start  time.Time
	attrs  map[string]any
	events []SpanEvent
}

// Start opens a phase span on the coordinator track (track 0). The span
// nests under the most recently started still-open span of that track.
// Returns nil on a nil scope.
func (s *Scope) Start(name string) *Span { return s.startOn(0, name, nil) }

// startOn opens a span on an explicit track with optional initial attrs.
func (s *Scope) startOn(track int64, name string, attrs map[string]any) *Span {
	if s == nil {
		return nil
	}
	t := &s.tracer
	t.mu.Lock()
	if t.stacks == nil {
		t.stacks = make(map[int64][]string)
	}
	parent := ""
	if st := t.stacks[track]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.stacks[track] = append(t.stacks[track], name)
	t.mu.Unlock()
	return &Span{scope: s, name: name, parent: parent, track: track, attrs: attrs, start: time.Now()}
}

// SetAttr records one span attribute. Values are normalized to scalar JSON
// types (string, bool, int64, float64). Safe on a nil span; returns the
// span for chaining.
func (sp *Span) SetAttr(key string, value any) *Span {
	if sp == nil {
		return nil
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]any)
	}
	sp.attrs[key] = normalizeAttr(value)
	return sp
}

// Event records a timestamped point-in-time annotation on the span, with
// optional alternating key/value attribute pairs. Safe on a nil span.
func (sp *Span) Event(name string, kv ...any) {
	if sp == nil {
		return
	}
	ev := SpanEvent{Name: name, UnixNano: time.Now().UnixNano()}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[fmt.Sprint(kv[i])] = normalizeAttr(kv[i+1])
		}
	}
	sp.events = append(sp.events, ev)
}

// normalizeAttr maps attribute values onto the scalar types that survive a
// JSON round-trip unchanged in kind: string, bool, int64, float64.
func normalizeAttr(v any) any {
	switch x := v.(type) {
	case string, bool, int64, float64:
		return x
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case time.Duration:
		return int64(x)
	default:
		return fmt.Sprint(v)
	}
}

// End closes the span, records it, observes its wall time into
// phase_seconds{phase=<name>}, and logs it when the scope has a logger. It
// returns the measured wall time (0 on a nil span).
func (sp *Span) End() time.Duration {
	if sp == nil {
		return 0
	}
	d := time.Since(sp.start)
	t := &sp.scope.tracer
	t.mu.Lock()
	if st := t.stacks[sp.track]; len(st) > 0 {
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == sp.name {
				t.stacks[sp.track] = append(st[:i], st[i+1:]...)
				break
			}
		}
	}
	rec := SpanRecord{
		Name:          sp.name,
		Parent:        sp.parent,
		Track:         sp.track,
		StartUnixNano: sp.start.UnixNano(),
		DurationNs:    int64(d),
		Attrs:         sp.attrs,
		Events:        sp.events,
	}
	t.spans.push(rec)
	// Lock order: the registry lookup takes Metrics.mu under t.mu, and
	// nothing takes t.mu under Metrics.mu.
	phase := t.phases[sp.name]
	if phase == nil {
		if t.phases == nil {
			t.phases = make(map[string]*Histogram)
		}
		phase = sp.scope.metrics.histogram(phaseSeconds, []Label{{Key: "phase", Value: sp.name}})
		t.phases[sp.name] = phase
	}
	logger := t.logger
	t.mu.Unlock()
	phase.Observe(d.Seconds())
	sp.scope.afterSpan(rec)
	if logger != nil {
		if sp.parent != "" {
			logger.Info("phase", "name", sp.name, "parent", sp.parent, "dur", d)
		} else {
			logger.Info("phase", "name", sp.name, "dur", d)
		}
	}
	return d
}

// Spans returns the retained completed spans in end order, oldest first
// (nil on a nil scope). When the ring buffer has wrapped, only the newest
// MaxSpans records remain; SpansDropped counts the overwritten rest.
func (s *Scope) Spans() []SpanRecord {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.tracer.spans.all()
}

// SpansDropped reports how many completed spans were overwritten by the
// ring buffer (0 on a nil scope).
func (s *Scope) SpansDropped() int64 {
	if s == nil {
		return 0
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.tracer.spans.dropped
}

// TrackFor returns a stable virtual-track id for a display name,
// allocating one on first use (track ids start at 1; 0 is the
// coordinator). Worker pools use it so repeated pool invocations reuse one
// Perfetto lane per worker. Returns 0 on a nil scope.
func (s *Scope) TrackFor(name string) int64 {
	if s == nil {
		return 0
	}
	t := &s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trackByID == nil {
		t.trackByID = make(map[string]int64)
		t.tracks = make(map[int64]string)
	}
	if id, ok := t.trackByID[name]; ok {
		return id
	}
	t.nextTrack++
	id := t.nextTrack
	t.trackByID[name] = id
	t.tracks[id] = name
	return id
}

// TrackNames returns the display names of all allocated worker tracks,
// keyed by track id (nil on a nil scope or when no tracks were used).
func (s *Scope) TrackNames() map[int64]string {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if len(s.tracer.tracks) == 0 {
		return nil
	}
	out := make(map[int64]string, len(s.tracer.tracks))
	for id, name := range s.tracer.tracks {
		out[id] = name
	}
	return out
}
