package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// traceEvent is one entry of the Chrome/Perfetto trace-event JSON format
// (the "JSON Array Format" with complete events). Timestamps and durations
// are in microseconds; pid/tid identify the process and (virtual) thread
// lanes Perfetto renders.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON Object Format wrapper Perfetto and
// chrome://tracing both accept.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tracePid is the synthetic process id used for all lanes.
const tracePid = 1

// WriteTraceEvents writes the snapshot's spans as Chrome/Perfetto
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
// Coordinator spans render on thread 0 ("flow"); worker-pool spans render
// on one virtual thread per worker, named after the pool and worker index
// (e.g. "mapper.curves/w2"). Span attributes and parents appear under each
// slice's args; span events become thread-scoped instant markers. Runtime
// samples (when a sampler ran) render as counter tracks — heap live/goal,
// goroutines, RSS — alongside the span lanes. Timestamps are rebased so
// the earliest span or sample starts at 0.
func (sn *Snapshot) WriteTraceEvents(w io.Writer) error {
	var base int64
	for i, sp := range sn.Spans {
		if i == 0 || sp.StartUnixNano < base {
			base = sp.StartUnixNano
		}
	}
	for i, rs := range sn.RuntimeSamples {
		if (i == 0 && len(sn.Spans) == 0) || rs.UnixNano < base {
			base = rs.UnixNano
		}
	}
	events := make([]traceEvent, 0, 2+2*len(sn.Spans))
	procArgs := map[string]any{"name": "powermap"}
	if sn.RunID != "" {
		procArgs["run_id"] = sn.RunID
	}
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: tracePid, Tid: 0,
		Args: procArgs,
	})
	events = append(events, traceEvent{
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: 0,
		Args: map[string]any{"name": "flow"},
	})
	trackIDs := make([]int64, 0, len(sn.Tracks))
	for id := range sn.Tracks {
		trackIDs = append(trackIDs, id)
	}
	sort.Slice(trackIDs, func(i, j int) bool { return trackIDs[i] < trackIDs[j] })
	for _, id := range trackIDs {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: id,
			Args: map[string]any{"name": sn.Tracks[id]},
		})
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, sp := range sn.Spans {
		args := make(map[string]any, len(sp.Attrs)+1)
		for k, v := range sp.Attrs {
			args[k] = v
		}
		if sp.Parent != "" {
			args["parent"] = sp.Parent
		}
		if len(args) == 0 {
			args = nil
		}
		events = append(events, traceEvent{
			Name: sp.Name,
			Cat:  "phase",
			Ph:   "X",
			Ts:   us(sp.StartUnixNano - base),
			Dur:  us(sp.DurationNs),
			Pid:  tracePid,
			Tid:  sp.Track,
			Args: args,
		})
		for _, ev := range sp.Events {
			events = append(events, traceEvent{
				Name: ev.Name,
				Cat:  "event",
				Ph:   "i",
				Ts:   us(ev.UnixNano - base),
				Pid:  tracePid,
				Tid:  sp.Track,
				S:    "t",
				Args: ev.Attrs,
			})
		}
	}
	// Counter tracks from the runtime-sample ring: each named track renders
	// as a value-over-time chart above the span lanes.
	for _, rs := range sn.RuntimeSamples {
		ts := us(rs.UnixNano - base)
		events = append(events,
			traceEvent{Name: "heap (bytes)", Cat: "runtime", Ph: "C", Ts: ts, Pid: tracePid,
				Args: map[string]any{"live": rs.HeapLiveBytes, "goal": rs.HeapGoalBytes}},
			traceEvent{Name: "goroutines", Cat: "runtime", Ph: "C", Ts: ts, Pid: tracePid,
				Args: map[string]any{"count": rs.Goroutines}},
		)
		if rs.RSSBytes > 0 {
			events = append(events, traceEvent{Name: "rss (bytes)", Cat: "runtime", Ph: "C",
				Ts: ts, Pid: tracePid, Args: map[string]any{"rss": rs.RSSBytes}})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
