package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Metrics is a registry of named counters, gauges, and histograms, each
// optionally refined into labeled series via the handles' With method. All
// methods are safe for concurrent use and safe on a nil receiver (they
// return nil handles, whose methods are in turn no-ops).
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// labelEscaper escapes label values for the canonical series key, which
// doubles as the Prometheus-style display name (name{k="v",...}).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// seriesKey builds the canonical registry key: the bare name for an
// unlabeled series, name{k="v",k2="v2"} (keys sorted) otherwise.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels combines a base label set with alternating key/value pairs,
// later pairs overriding earlier keys, and returns the result sorted by
// key. A trailing odd key is ignored.
func mergeLabels(base []Label, kv []string) []Label {
	m := make(map[string]string, len(base)+len(kv)/2)
	for _, l := range base {
		m[l.Key] = l.Value
	}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	out := make([]Label, 0, len(m))
	for k, v := range m {
		out = append(out, Label{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter { return m.counter(name, nil) }

func (m *Metrics) counter(name string, labels []Label) *Counter {
	if m == nil {
		return nil
	}
	key := seriesKey(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters == nil {
		m.counters = make(map[string]*Counter)
	}
	c, ok := m.counters[key]
	if !ok {
		c = &Counter{reg: m, name: name, labels: labels, key: key}
		m.counters[key] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (m *Metrics) Gauge(name string) *Gauge { return m.gauge(name, nil) }

func (m *Metrics) gauge(name string, labels []Label) *Gauge {
	if m == nil {
		return nil
	}
	key := seriesKey(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gauges == nil {
		m.gauges = make(map[string]*Gauge)
	}
	g, ok := m.gauges[key]
	if !ok {
		g = &Gauge{reg: m, name: name, labels: labels, key: key}
		m.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (m *Metrics) Histogram(name string) *Histogram { return m.histogram(name, nil) }

func (m *Metrics) histogram(name string, labels []Label) *Histogram {
	if m == nil {
		return nil
	}
	key := seriesKey(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.histograms == nil {
		m.histograms = make(map[string]*Histogram)
	}
	h, ok := m.histograms[key]
	if !ok {
		h = &Histogram{}
		m.histograms[key] = h
	}
	return h
}

// Counter is a monotonically increasing (or freely adjusted) integer
// series.
type Counter struct {
	v      atomic.Int64
	reg    *Metrics
	name   string
	labels []Label
	key    string
}

// With returns the counter series refined by the given alternating
// key/value label pairs (merged with — and overriding — the receiver's
// labels). Handles are interned: the same name and label set always
// returns the same handle, so hot loops should hoist With out of the
// loop. Nil-safe.
func (c *Counter) With(kv ...string) *Counter {
	if c == nil {
		return nil
	}
	return c.reg.counter(c.name, mergeLabels(c.labels, kv))
}

// Add adds delta; no-op on a nil counter.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds one; no-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float series.
type Gauge struct {
	bits   atomic.Uint64
	reg    *Metrics
	name   string
	labels []Label
	key    string
}

// With returns the gauge series refined by the given label pairs; see
// Counter.With. Nil-safe.
func (g *Gauge) With(kv ...string) *Gauge {
	if g == nil {
		return nil
	}
	return g.reg.gauge(g.name, mergeLabels(g.labels, kv))
}

// Set stores v; no-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds delta to the gauge (negative deltas decrement); it
// is what up/down quantities like in-flight job counts use. No-op on nil.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// SetMax stores v only if it exceeds the current value; no-op on nil.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// bucketBounds holds the upper bounds of the one bucket layout every
// Histogram counts into: the powers of 4 from 4^-10 (about 1e-6) to 4^17
// (about 1.7e10), then +Inf. One layout at a fixed 4x resolution spans
// seconds, milliseconds, per-node counts and heap bytes alike, and makes
// any two histograms mergeable bucket by bucket.
var bucketBounds = func() (b [29]float64) {
	for i := range b[:len(b)-1] {
		b[i] = math.Ldexp(1, 2*(i-10))
	}
	b[len(b)-1] = math.Inf(1)
	return b
}()

// Histogram tracks a value distribution: exact count/sum/min/max plus
// per-bucket counts over bucketBounds.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [len(bucketBounds)]uint64
}

// Observe records one value; no-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// The first bound >= v is v's bucket (Prometheus "le" semantics); NaN
	// finds none and counts as +Inf.
	i := min(sort.SearchFloat64s(bucketBounds[:], v), len(bucketBounds)-1)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[i]++
}

// HistogramStats summarizes a histogram for export. The quantiles are
// bucket upper bounds (see bucketQuantile), so they are exact to the
// layout's 4x resolution and deterministic for a given set of values.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Buckets counts the observations per bucket of the shared layout:
	// powers of 4 from 4^-10 to 4^17, then +Inf. Buckets[i] holds the
	// values in (bound i-1, bound i].
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Stats returns the current summary (zero value on a nil histogram).
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	st := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Buckets: append([]uint64(nil), h.buckets[:]...)}
	h.mu.Unlock()
	st.P50 = bucketQuantile(st.Buckets, bucketBounds[:], 0.50)
	st.P90 = bucketQuantile(st.Buckets, bucketBounds[:], 0.90)
	st.P99 = bucketQuantile(st.Buckets, bucketBounds[:], 0.99)
	return st
}

// bucketQuantile estimates the q-quantile of a bucketed distribution as the
// upper bound of the bucket holding rank q·total, where upper[i] bounds
// counts[i]. A rank in a +Inf bucket reports that bucket's lower bound
// instead. Returns 0 on an empty distribution.
func bucketQuantile(counts []uint64, upper []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	i, seen := 0, uint64(0)
	for ; i < len(counts)-1; i++ {
		if seen += counts[i]; seen > rank {
			break
		}
	}
	if math.IsInf(upper[i], 1) && i > 0 {
		return upper[i-1]
	}
	return upper[i]
}
