package obs

import (
	"context"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSampleInterval is the runtime sampler cadence used when
// StartRuntimeSampler is given a non-positive interval. Half a second keeps
// a long -serve process's counter tracks smooth while costing microseconds
// per tick.
const DefaultSampleInterval = 500 * time.Millisecond

// defaultMaxRuntimeSamples bounds the per-scope runtime-sample ring: at the
// default interval it retains the last ~4 minutes, and at any interval it
// caps flight-record and snapshot payloads.
const defaultMaxRuntimeSamples = 512

// RuntimeSample is one observation of the Go runtime's resource state, as
// captured by the background sampler. GC pause and scheduling-latency
// quantiles summarize the runtime's process-lifetime distributions at the
// sample instant.
type RuntimeSample struct {
	UnixNano          int64   `json:"unix_nano"`
	HeapLiveBytes     uint64  `json:"heap_live_bytes"`
	HeapGoalBytes     uint64  `json:"heap_goal_bytes"`
	Goroutines        int64   `json:"goroutines"`
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseP50Ns      float64 `json:"gc_pause_p50_ns"`
	GCPauseP99Ns      float64 `json:"gc_pause_p99_ns"`
	SchedLatencyP50Ns float64 `json:"sched_latency_p50_ns"`
	SchedLatencyP99Ns float64 `json:"sched_latency_p99_ns"`
	// RSSBytes is the OS-reported resident set size (0 where /proc is
	// unavailable).
	RSSBytes uint64 `json:"rss_bytes,omitempty"`
}

// runtimeState is the scope's sampler-side state: the bounded sample ring
// plus the liveness bookkeeping the health layer reads for stall
// detection.
type runtimeState struct {
	mu      sync.Mutex
	samples ring[RuntimeSample]

	// started is 1 once a sampler was attached to the scope; lastNano and
	// intervalNs feed the health layer's stall check.
	started    atomic.Int64
	lastNano   atomic.Int64
	intervalNs atomic.Int64
}

func (r *runtimeState) add(s RuntimeSample) {
	r.mu.Lock()
	r.samples.push(s)
	r.mu.Unlock()
	r.lastNano.Store(s.UnixNano)
}

// RuntimeSamples returns the retained runtime samples, oldest first (nil on
// a nil scope or before the first sample).
func (s *Scope) RuntimeSamples() []RuntimeSample {
	if s == nil {
		return nil
	}
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.rt.samples.all()
}

// samplerKeys are the runtime/metrics series the sampler reads, in the
// order of the prepared sample slice.
var samplerKeys = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// RuntimeSampler is a background goroutine bridging runtime/metrics into
// the scope: every interval it appends one RuntimeSample to the scope's
// ring and refreshes the runtime.* gauges (exported as
// powermap_runtime_* by WritePrometheus and as counter tracks by
// WriteTraceEvents). Stop it exactly once; it also stops when the start
// context is cancelled. A nil *RuntimeSampler (from a nil scope) is inert.
type RuntimeSampler struct {
	scope    *Scope
	interval time.Duration
	cancel   context.CancelFunc
	done     chan struct{}
}

// StartRuntimeSampler starts the background resource sampler on the scope.
// A non-positive interval selects DefaultSampleInterval. The first sample
// is taken synchronously, so even a run shorter than one interval records
// the runtime state it started under. Returns nil on a nil scope.
func (s *Scope) StartRuntimeSampler(ctx context.Context, interval time.Duration) *RuntimeSampler {
	if s == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	s.rt.started.Store(1)
	s.rt.intervalNs.Store(int64(interval))
	ctx, cancel := context.WithCancel(ctx)
	r := &RuntimeSampler{scope: s, interval: interval, cancel: cancel, done: make(chan struct{})}
	r.sampleOnce()
	go r.loop(ctx)
	return r
}

// Stop halts the sampler and waits for its goroutine to exit. Safe on nil
// and safe to call after context cancellation (but not twice).
func (r *RuntimeSampler) Stop() {
	if r == nil {
		return
	}
	r.cancel()
	<-r.done
}

func (r *RuntimeSampler) loop(ctx context.Context) {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.sampleOnce()
		}
	}
}

// sampleOnce takes one sample and publishes it to the ring and the metric
// registry. The handles are looked up per call (not hoisted) because the
// cadence is human-scale; registry lookups are noise next to metrics.Read.
func (r *RuntimeSampler) sampleOnce() {
	sc := r.scope
	s := readRuntimeSample()
	sc.rt.add(s)
	sc.Gauge("runtime.heap_live_bytes").Set(float64(s.HeapLiveBytes))
	sc.Gauge("runtime.heap_goal_bytes").Set(float64(s.HeapGoalBytes))
	sc.Gauge("runtime.goroutines").Set(float64(s.Goroutines))
	sc.Gauge("runtime.gc_cycles").Set(float64(s.GCCycles))
	sc.Gauge("runtime.gc_pause_p50_ns").Set(s.GCPauseP50Ns)
	sc.Gauge("runtime.gc_pause_p99_ns").Set(s.GCPauseP99Ns)
	sc.Gauge("runtime.sched_latency_p50_ns").Set(s.SchedLatencyP50Ns)
	sc.Gauge("runtime.sched_latency_p99_ns").Set(s.SchedLatencyP99Ns)
	if s.RSSBytes > 0 {
		sc.Gauge("runtime.rss_bytes").Set(float64(s.RSSBytes))
	}
	sc.Counter("runtime.samples").Inc()
}

// readRuntimeSample reads the runtime/metrics series once.
func readRuntimeSample() RuntimeSample {
	samples := make([]metrics.Sample, len(samplerKeys))
	for i, k := range samplerKeys {
		samples[i].Name = k
	}
	metrics.Read(samples)
	out := RuntimeSample{UnixNano: time.Now().UnixNano()}
	for i, k := range samplerKeys {
		v := samples[i].Value
		switch k {
		case "/memory/classes/heap/objects:bytes":
			if v.Kind() == metrics.KindUint64 {
				out.HeapLiveBytes = v.Uint64()
			}
		case "/gc/heap/goal:bytes":
			if v.Kind() == metrics.KindUint64 {
				out.HeapGoalBytes = v.Uint64()
			}
		case "/sched/goroutines:goroutines":
			if v.Kind() == metrics.KindUint64 {
				out.Goroutines = int64(v.Uint64())
			}
		case "/gc/cycles/total:gc-cycles":
			if v.Kind() == metrics.KindUint64 {
				out.GCCycles = v.Uint64()
			}
		case "/gc/pauses:seconds":
			if v.Kind() == metrics.KindFloat64Histogram {
				out.GCPauseP50Ns = histQuantileNs(v.Float64Histogram(), 0.50)
				out.GCPauseP99Ns = histQuantileNs(v.Float64Histogram(), 0.99)
			}
		case "/sched/latencies:seconds":
			if v.Kind() == metrics.KindFloat64Histogram {
				out.SchedLatencyP50Ns = histQuantileNs(v.Float64Histogram(), 0.50)
				out.SchedLatencyP99Ns = histQuantileNs(v.Float64Histogram(), 0.99)
			}
		}
	}
	if out.Goroutines == 0 {
		out.Goroutines = int64(runtime.NumGoroutine())
	}
	out.RSSBytes = readRSSBytes()
	return out
}

// histQuantileNs estimates the q-quantile of a runtime/metrics histogram
// (whose unit is seconds) in nanoseconds, by the same bucket rule as
// Histogram.Stats. Buckets[i+1] is Counts[i]'s upper bound.
func histQuantileNs(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(h.Counts, h.Buckets[1:], q) * 1e9
}

// readRSSBytes reads the resident set size from /proc/self/statm (Linux);
// returns 0 on any other platform or error.
func readRSSBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
