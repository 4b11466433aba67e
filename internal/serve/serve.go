package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"powermap/internal/bdd"
	"powermap/internal/blif"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/exec"
	"powermap/internal/network"
	"powermap/internal/obs"
	"powermap/internal/verify"
)

// maxBodyBytes bounds a POST /synth payload; BLIF for the paper-scale
// circuits is a few hundred KiB at most.
const maxBodyBytes = 8 << 20

// Config sizes the daemon. Zero fields take the documented defaults.
type Config struct {
	// MaxInflight bounds concurrently synthesizing requests (default: one
	// per CPU, via exec.Workers).
	MaxInflight int
	// QueueDepth bounds requests waiting for a synthesis slot; the
	// QueueDepth+1-th waiter is refused with 429 (default 2*MaxInflight).
	QueueDepth int
	// CacheSize bounds the result cache entries (default 128).
	CacheSize int
	// Workers is the per-request pipeline worker count (default 1: the
	// service parallelizes across requests, not inside them).
	Workers int
	// DefaultTimeout budgets requests that don't set timeout_ms (default
	// 60s); MaxTimeout clamps requests that do (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BDDLimit is the default live-node budget for requests that don't
	// set bdd_limit (0 keeps the kernel default). When both are set the
	// request may only lower it: the server value is the ceiling.
	BDDLimit int
	// Scope receives the daemon's telemetry and backs /healthz, /readyz,
	// /metrics and the debug endpoints. Nil disables instrumentation.
	Scope *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = exec.Workers(0)
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxInflight
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the synthesis service: Handler() is its HTTP surface, Drain()
// its graceful stop. Create with New.
type Server struct {
	cfg   Config
	cache *cache

	sem      chan struct{}
	queued   atomic.Int64
	inflight sync.WaitGroup
	draining atomic.Bool
	drainCh  chan struct{}
	drainDo  sync.Once

	// run executes one admitted, cache-missed request. Tests substitute
	// deterministic stand-ins (a blocker for 429, a sleeper for 408);
	// production is Server.synthesize.
	run func(ctx context.Context, nw *network.Network, req Request, rv resolved) (*Response, error)
}

// New builds a Server; Explicit QueueDepth < 0 means "no waiting room".
func New(cfg Config) *Server {
	// A negative QueueDepth survives withDefaults as 0: refuse on busy.
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheSize, cfg.Scope),
		sem:     make(chan struct{}, cfg.MaxInflight),
		drainCh: make(chan struct{}),
	}
	s.run = s.synthesize
	return s
}

// Drain stops admitting work (new synthesis requests and queued waiters
// get 503, /readyz flips to 503) and blocks until every in-flight request
// finished. Idempotent; concurrent callers all block until the first
// drain completes.
func (s *Server) Drain() {
	s.drainDo.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	s.inflight.Wait()
}

// Handler returns the daemon's full HTTP surface: POST /synth, the
// drain-aware /readyz, and the scope's telemetry endpoints (/metrics,
// /healthz, /debug/flight, /debug/pprof, ...) for everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /synth", s.handleSynth)
	mux.HandleFunc("/synth", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", http.MethodPost)
		s.writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/", s.cfg.Scope.Handler())
	return mux
}

// handleReady is /readyz with the drain state folded in: a draining
// daemon is alive (in-flight work is finishing) but must not be routed
// new requests.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	h := s.cfg.Scope.Health()
	if s.draining.Load() {
		h.Ready = false
		h.Reasons = append(h.Reasons, "draining")
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		s.cfg.Scope.LogError("readyz write failed", "err", err)
	}
}

// admit acquires a synthesis slot. It returns a non-nil release func on
// success; otherwise the HTTP status to refuse with — 503 draining, 429
// queue full, 408 budget expired while queued.
func (s *Server) admit(ctx context.Context) (release func(), status int) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable
	}
	acquired := func() func() {
		s.inflight.Add(1)
		s.observeGauges()
		var once sync.Once
		return func() {
			once.Do(func() {
				<-s.sem
				s.inflight.Done()
				s.observeGauges()
			})
		}
	}
	select {
	case s.sem <- struct{}{}:
		return acquired(), 0
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests
	}
	defer func() {
		s.queued.Add(-1)
		s.observeGauges()
	}()
	s.observeGauges()
	select {
	case s.sem <- struct{}{}:
		return acquired(), 0
	case <-ctx.Done():
		return nil, http.StatusRequestTimeout
	case <-s.drainCh:
		return nil, http.StatusServiceUnavailable
	}
}

func (s *Server) observeGauges() {
	sc := s.cfg.Scope
	if sc == nil {
		return
	}
	sc.Gauge("serve.inflight").Set(float64(len(s.sem)))
	sc.Gauge("serve.queued").Set(float64(s.queued.Load()))
}

// handleSynth is POST /synth: parse → cache probe → admission →
// synthesis → cache fill, with the status-code contract of DESIGN.md §16.
func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status, body := s.serveSynth(r)
	s.writeJSON(w, status, body)
	sc := s.cfg.Scope
	if sc == nil {
		return
	}
	sc.Counter("serve.requests").With("code", fmt.Sprint(status)).Inc()
	sc.Histogram("serve.latency_ms").Observe(float64(time.Since(start)) / float64(time.Millisecond))
	sc.Gauge("serve.cache_entries").Set(float64(s.cache.len()))
}

// serveSynth computes one request's (status, body). Synthesis panics are
// contained here: the worker answers 500 and stays alive.
func (s *Server) serveSynth(r *http.Request) (status int, body any) {
	start := time.Now()
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()}
	}
	rv, err := req.Options.resolve()
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	var nw *network.Network
	switch {
	case req.Circuit != "" && req.BLIF != "":
		return http.StatusBadRequest, ErrorResponse{Error: "give either circuit or blif, not both"}
	case req.Circuit != "":
		b, err := circuits.ByName(req.Circuit)
		if err != nil {
			return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
		}
		nw = b.Build()
	case req.BLIF != "":
		nw, err = blif.ParseString(req.BLIF)
		if err != nil {
			return http.StatusBadRequest, ErrorResponse{Error: "blif: " + err.Error()}
		}
	default:
		return http.StatusBadRequest, ErrorResponse{Error: "need circuit or blif"}
	}

	key := cacheKey(req.Circuit, req.BLIF, rv)
	if resp, ok := s.cache.get(key); ok {
		hit := *resp
		hit.Cached = true
		hit.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		return http.StatusOK, &hit
	}

	timeout := rv.timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	release, refuse := s.admit(ctx)
	if refuse != 0 {
		return refuse, ErrorResponse{Error: refuseReason(refuse)}
	}
	defer release()

	resp, err := s.runRecovered(ctx, nw, req, rv)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return http.StatusRequestTimeout, ErrorResponse{Error: fmt.Sprintf("request exceeded its %v budget", timeout)}
		case errors.Is(err, context.Canceled):
			return http.StatusRequestTimeout, ErrorResponse{Error: "request cancelled"}
		case bdd.IsNodeLimit(err):
			return http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()}
		default:
			s.cfg.Scope.LogError("synthesis failed", "circuit", nw.Name, "err", err)
			return http.StatusInternalServerError, ErrorResponse{Error: err.Error()}
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.cache.put(key, resp)
	return http.StatusOK, resp
}

func refuseReason(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return "queue full; retry later"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusRequestTimeout:
		return "request budget expired while queued"
	}
	return http.StatusText(status)
}

// runRecovered invokes the synthesis step with panic containment: a
// panicking request answers 500, the admission slot is released normally,
// and the daemon keeps serving.
func (s *Server) runRecovered(ctx context.Context, nw *network.Network, req Request, rv resolved) (resp *Response, err error) {
	defer func() {
		if p := recover(); p != nil {
			resp, err = nil, fmt.Errorf("synthesis panicked: %v", p)
		}
	}()
	return s.run(ctx, nw, req, rv)
}

// synthesize is the production run function: the full pipeline, then
// verification by the internal/verify oracle and netlist rendering per the
// request.
func (s *Server) synthesize(ctx context.Context, nw *network.Network, req Request, rv resolved) (*Response, error) {
	probs := make(map[string]float64, len(nw.PIs))
	for _, name := range nw.PINames() {
		probs[name] = rv.piProb
	}
	res, err := core.SynthesizeContext(ctx, nw, core.Options{
		Method:  rv.method,
		Style:   rv.style,
		PIProb:  probs,
		Mapper:  rv.backend,
		LUT:     rv.lut,
		Workers: s.cfg.Workers,
		Obs:     s.cfg.Scope,
		BDD:     bdd.Config{NodeLimit: s.bddLimit(rv), Reorder: rv.reorder},
	})
	if err != nil {
		return nil, err
	}
	out := &Response{
		Circuit: req.Circuit,
		Method:  rv.method.String(),
		Report: Report{
			Gates:   res.Report.Gates,
			Area:    res.Report.GateArea,
			DelayNS: res.Report.Delay,
			PowerUW: res.Report.PowerUW,
		},
		SubjectNodes:  res.Decomp.Network.Stats().Nodes,
		TotalActivity: res.Decomp.TotalActivity,
	}
	if out.Circuit == "" {
		out.Circuit = nw.Name
	}
	if rv.verify {
		if err := verify.CheckResult(ctx, nw, res); err != nil {
			return nil, err
		}
		ok := true
		out.Verified = &ok
	}
	if rv.netlist {
		var buf bytes.Buffer
		if err := res.Netlist.WriteBLIF(&buf); err != nil {
			return nil, err
		}
		out.NetlistBLIF = buf.String()
	}
	return out, nil
}

// bddLimit resolves the request's live-node budget against the server's:
// the request may tighten the server ceiling, never exceed it.
func (s *Server) bddLimit(rv resolved) int {
	switch {
	case rv.bddLimit == 0:
		return s.cfg.BDDLimit
	case s.cfg.BDDLimit == 0:
		return rv.bddLimit
	default:
		return min(rv.bddLimit, s.cfg.BDDLimit)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(body); err != nil {
		s.cfg.Scope.LogError("response write failed", "err", err)
	}
}
