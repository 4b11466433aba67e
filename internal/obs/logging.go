package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// LogOptions configures the shared CLI log handler built by NewLogHandler.
type LogOptions struct {
	// Level is the minimum level emitted (default slog.LevelInfo).
	Level slog.Level
	// JSON selects slog's JSON handler instead of the text handler.
	JSON bool
	// RunID, when non-empty, is stamped on every record as run_id, tying
	// console logs to the journals/telemetry of the same run.
	RunID string
}

// ParseLogLevel maps the -log-level flag values (debug, info, warn, error;
// case-insensitive) to slog levels; unknown strings default to info.
func ParseLogLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NewLogHandler builds the uniform CLI logging handler: slog text or JSON
// at the requested level, stamping the run-id on every record and the
// context labels (circuit, method in the experiment suite — see
// WithLabels) on records logged with a context. The obs span sink
// (Scope.SetSpanLogger) and the flight recorder's tee both layer over the
// same handler, so one -log-level/-log-json choice governs all output.
func NewLogHandler(w io.Writer, opts LogOptions) slog.Handler {
	ho := &slog.HandlerOptions{Level: opts.Level}
	var h slog.Handler
	if opts.JSON {
		h = slog.NewJSONHandler(w, ho)
	} else {
		h = slog.NewTextHandler(w, ho)
	}
	if opts.RunID != "" {
		h = h.WithAttrs([]slog.Attr{slog.String("run_id", opts.RunID)})
	}
	return &labelStampHandler{next: h}
}

// labelStampHandler appends the context's obs labels (WithLabels pairs) to
// every record, so suite workers' logs carry circuit/method without each
// call site threading them.
type labelStampHandler struct {
	next slog.Handler
}

func (h *labelStampHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.next.Enabled(ctx, level)
}

func (h *labelStampHandler) Handle(ctx context.Context, rec slog.Record) error {
	if labels := LabelsFrom(ctx); len(labels) >= 2 {
		rec = rec.Clone()
		for i := 0; i+1 < len(labels); i += 2 {
			rec.AddAttrs(slog.String(labels[i], labels[i+1]))
		}
	}
	return h.next.Handle(ctx, rec)
}

func (h *labelStampHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &labelStampHandler{next: h.next.WithAttrs(attrs)}
}

func (h *labelStampHandler) WithGroup(name string) slog.Handler {
	return &labelStampHandler{next: h.next.WithGroup(name)}
}
