package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is a self-contained export of a Scope at one instant: all
// retained spans and the current value of every metric series. Labeled
// series appear under their Prometheus-style key, name{k="v",...}, with
// label keys sorted; unlabeled series under the bare name. It marshals to
// stable JSON (map keys sort on encoding) and round-trips through
// ParseSnapshot.
type Snapshot struct {
	// RunID is the identifier the scope was configured with (Config.RunID),
	// tying this snapshot to the journals and traces of the same run.
	RunID string       `json:"run_id,omitempty"`
	Spans []SpanRecord `json:"spans,omitempty"`
	// SpansDropped counts spans lost to the ring buffer before this
	// snapshot was taken.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
	// Tracks names the worker virtual tracks referenced by Spans[i].Track
	// (track 0, the coordinator, is implicit).
	Tracks     map[int64]string          `json:"tracks,omitempty"`
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	// RuntimeSamples is the retained runtime-resource sample ring (present
	// only when a RuntimeSampler ran on the scope).
	RuntimeSamples []RuntimeSample `json:"runtime_samples,omitempty"`
	// Breaches is the SLO breach ledger (present only when a phase budget
	// was violated).
	Breaches []Breach `json:"breaches,omitempty"`
}

// Snapshot captures the scope's current state. On a nil scope it returns
// an empty (but usable) snapshot.
func (s *Scope) Snapshot() *Snapshot {
	sn := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if s == nil {
		return sn
	}
	sn.RunID = s.runID
	sn.Spans = s.Spans()
	sn.SpansDropped = s.SpansDropped()
	sn.Tracks = s.TrackNames()
	sn.RuntimeSamples = s.RuntimeSamples()
	sn.Breaches = s.Breaches()
	m := &s.metrics
	m.mu.Lock()
	counters := make(map[string]*Counter, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for k, v := range m.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(m.histograms))
	for k, v := range m.histograms {
		hists[k] = v
	}
	m.mu.Unlock()
	for k, c := range counters {
		sn.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		sn.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		sn.Histograms[k] = h.Stats()
	}
	return sn
}

// WriteJSON writes the snapshot as indented JSON.
func (sn *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sn)
}

// ParseSnapshot reads a snapshot previously written by WriteJSON.
func ParseSnapshot(r io.Reader) (*Snapshot, error) {
	sn := &Snapshot{}
	if err := json.NewDecoder(r).Decode(sn); err != nil {
		return nil, fmt.Errorf("obs: parse snapshot: %w", err)
	}
	return sn, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
