package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LiveNodesGauge is the gauge the live-node budget checks against. The BDD
// layer maintains it as a high-water mark of live manager nodes
// (Gauge.SetMax in the decomposition flow), so a budget breach means the
// run actually held that many nodes live at once.
const LiveNodesGauge = "bdd.nodes_live_max"

// maxBreaches bounds the breach ledger; the counter series keeps the full
// tally even after the ledger wraps.
const maxBreaches = 256

// samplerStallFactor: a sampler that has not produced a sample for this
// many intervals is considered stalled and degrades /healthz.
const samplerStallFactor = 3

// Budget is a declarative per-phase SLO: a phase (span name) must finish
// within MaxDur and/or must not drive the live-BDD-node high-water mark
// (LiveNodesGauge) above MaxLiveNodes. Zero fields are unchecked. Budgets
// are evaluated when the matching span ends.
type Budget struct {
	Phase        string        `json:"phase"`
	MaxDur       time.Duration `json:"max_dur,omitempty"`
	MaxLiveNodes int64         `json:"max_live_nodes,omitempty"`
}

// String renders the budget in the -budget flag syntax.
func (b Budget) String() string {
	switch {
	case b.MaxDur > 0 && b.MaxLiveNodes > 0:
		return fmt.Sprintf("%s=%v,%dnodes", b.Phase, b.MaxDur, b.MaxLiveNodes)
	case b.MaxLiveNodes > 0:
		return fmt.Sprintf("%s=%dnodes", b.Phase, b.MaxLiveNodes)
	default:
		return fmt.Sprintf("%s=%v", b.Phase, b.MaxDur)
	}
}

// ParseBudget parses the -budget flag syntax: "phase=dur" (a Go duration,
// e.g. decompose=200ms), "phase=Nnodes" (a live-node ceiling, e.g.
// synthesize=50000nodes), or both comma-separated ("map=1s,20000nodes").
func ParseBudget(s string) (Budget, error) {
	phase, spec, ok := strings.Cut(s, "=")
	phase, spec = strings.TrimSpace(phase), strings.TrimSpace(spec)
	if !ok || phase == "" || spec == "" {
		return Budget{}, fmt.Errorf("obs: budget %q: want phase=dur, phase=Nnodes, or phase=dur,Nnodes", s)
	}
	b := Budget{Phase: phase}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if n, found := strings.CutSuffix(part, "nodes"); found {
			v, err := strconv.ParseInt(n, 10, 64)
			if err != nil || v <= 0 {
				return Budget{}, fmt.Errorf("obs: budget %q: bad node limit %q", s, part)
			}
			b.MaxLiveNodes = v
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil || d <= 0 {
			return Budget{}, fmt.Errorf("obs: budget %q: bad duration %q", s, part)
		}
		b.MaxDur = d
	}
	return b, nil
}

// Breach records one budget violation.
type Breach struct {
	Phase string `json:"phase"`
	// Kind is "latency" (MaxDur exceeded) or "live_nodes" (MaxLiveNodes
	// exceeded).
	Kind     string `json:"kind"`
	UnixNano int64  `json:"unix_nano"`
	// Value is the observed quantity (nanoseconds for latency, nodes for
	// live_nodes); Limit is the budget it crossed.
	Value int64 `json:"value"`
	Limit int64 `json:"limit"`
}

// healthState carries the scope's SLO bookkeeping: the configured budgets
// and the bounded breach ledger.
type healthState struct {
	mu       sync.Mutex
	budgets  map[string]Budget
	breaches ring[Breach]
}

// SetBudgets replaces the scope's phase budgets. Safe on nil.
func (s *Scope) SetBudgets(budgets []Budget) {
	if s == nil {
		return
	}
	h := &s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(budgets) == 0 {
		h.budgets = nil
		return
	}
	h.budgets = make(map[string]Budget, len(budgets))
	for _, b := range budgets {
		h.budgets[b.Phase] = b
	}
}

// Breaches returns the retained breach records, oldest first (nil on a nil
// scope or when nothing breached). The ledger is bounded at maxBreaches;
// BreachCount and the slo.breaches counter series keep the full tally.
func (s *Scope) Breaches() []Breach {
	if s == nil {
		return nil
	}
	s.health.mu.Lock()
	defer s.health.mu.Unlock()
	return s.health.breaches.all()
}

// BreachCount reports the total number of budget breaches so far (0 on a
// nil scope).
func (s *Scope) BreachCount() int64 {
	if s == nil {
		return 0
	}
	s.health.mu.Lock()
	defer s.health.mu.Unlock()
	return int64(len(s.health.breaches.items)) + s.health.breaches.dropped
}

// afterSpan evaluates the ended span against its phase budget (if any).
// Called from Span.End after the tracer mutex is released; breaches land
// in the ledger and the slo.breaches counter, labeled by phase and kind.
func (s *Scope) afterSpan(rec SpanRecord) {
	h := &s.health
	h.mu.Lock()
	b, ok := h.budgets[rec.Name]
	h.mu.Unlock()
	if !ok {
		return
	}
	now := time.Now().UnixNano()
	if b.MaxDur > 0 && rec.DurationNs > int64(b.MaxDur) {
		s.addBreach(Breach{Phase: rec.Name, Kind: "latency", UnixNano: now,
			Value: rec.DurationNs, Limit: int64(b.MaxDur)})
	}
	if b.MaxLiveNodes > 0 {
		if live := int64(s.Gauge(LiveNodesGauge).Value()); live > b.MaxLiveNodes {
			s.addBreach(Breach{Phase: rec.Name, Kind: "live_nodes", UnixNano: now,
				Value: live, Limit: b.MaxLiveNodes})
		}
	}
}

func (s *Scope) addBreach(b Breach) {
	s.health.mu.Lock()
	s.health.breaches.push(b)
	s.health.mu.Unlock()
	s.Counter("slo.breaches").With("phase", b.Phase, "kind", b.Kind).Inc()
}

// HealthStatus is the scope's liveness/readiness verdict as served by
// /healthz and /readyz.
type HealthStatus struct {
	// Healthy is false once any budget breached or while the runtime
	// sampler is stalled.
	Healthy bool `json:"healthy"`
	// Ready is false until the scope exists and — when a sampler was
	// started — it has produced at least one fresh sample.
	Ready    bool  `json:"ready"`
	Breaches int64 `json:"breaches"`
	// SpansDropped is informational: a wrapped span ring loses only old
	// span detail, never phase time.
	SpansDropped   int64 `json:"spans_dropped"`
	SamplerStarted bool  `json:"sampler_started"`
	SamplerStalled bool  `json:"sampler_stalled"`
	// LastSampleUnixNano is the timestamp of the newest runtime sample (0
	// when the sampler never ran).
	LastSampleUnixNano int64 `json:"last_sample_unix_nano,omitempty"`
	// Reasons lists, in stable order, why Healthy or Ready is false.
	Reasons []string `json:"reasons,omitempty"`
}

// Health evaluates the scope's current health; it is a pure read backing
// /healthz and /readyz. A nil scope is reported healthy and ready (nothing
// is instrumented, so nothing is wrong). A breach degrades the run
// permanently; a sampler stall heals if sampling resumes.
func (s *Scope) Health() HealthStatus {
	st := HealthStatus{Healthy: true, Ready: true}
	if s == nil {
		return st
	}
	st.SpansDropped = s.SpansDropped()
	st.Breaches = s.BreachCount()
	if st.Breaches > 0 {
		st.Healthy = false
		st.Reasons = append(st.Reasons, fmt.Sprintf("%d budget breach(es)", st.Breaches))
	}
	st.SamplerStarted = s.rt.started.Load() == 1
	if st.SamplerStarted {
		st.LastSampleUnixNano = s.rt.lastNano.Load()
		interval := s.rt.intervalNs.Load()
		if st.LastSampleUnixNano == 0 {
			st.Ready = false
			st.Reasons = append(st.Reasons, "runtime sampler has not produced a sample")
		} else if age := time.Now().UnixNano() - st.LastSampleUnixNano; interval > 0 && age > samplerStallFactor*interval {
			st.SamplerStalled = true
			st.Healthy = false
			st.Reasons = append(st.Reasons, fmt.Sprintf("runtime sampler stalled (%v since last sample)", time.Duration(age).Round(time.Millisecond)))
		}
	}
	return st
}
