package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"powermap/internal/mapper"
	"powermap/internal/network"
	"powermap/internal/obs"
)

func postSynth(t *testing.T, h http.Handler, body string) (int, map[string]any) {
	t.Helper()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/synth", strings.NewReader(body))
	h.ServeHTTP(rr, req)
	var out map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("non-JSON response (%d): %v\n%s", rr.Code, err, rr.Body.String())
	}
	return rr.Code, out
}

// TestSynthesizeAndCacheHit runs the real pipeline end to end: a bundled
// circuit synthesizes to a 200 with a positive power figure and a verified
// netlist, and the identical re-request is served from the cache.
func TestSynthesizeAndCacheHit(t *testing.T) {
	sc := obs.New(obs.Config{})
	s := New(Config{MaxInflight: 2, Scope: sc})
	h := s.Handler()
	body := `{"circuit": "cm42a", "options": {"method": "VI", "verify": true, "netlist": true}}`

	code, out := postSynth(t, h, body)
	if code != 200 {
		t.Fatalf("synthesis = %d: %v", code, out)
	}
	rep, _ := out["report"].(map[string]any)
	if p, _ := rep["power_uw"].(float64); p <= 0 {
		t.Errorf("power_uw = %v, want > 0", rep["power_uw"])
	}
	if v, _ := out["verified"].(bool); !v {
		t.Errorf("verified = %v, want true", out["verified"])
	}
	if nl, _ := out["netlist_blif"].(string); !strings.Contains(nl, ".model") {
		t.Errorf("netlist_blif missing BLIF content: %q", nl)
	}
	if cached, _ := out["cached"].(bool); cached {
		t.Error("first request claims cached")
	}

	// The same computation spelled with explicit defaults hits the cache.
	code, out = postSynth(t, h,
		`{"circuit": "cm42a", "options": {"method": "vi", "style": "static", "mapper": "dag", "pi_prob": 0.5, "verify": true, "netlist": true, "timeout_ms": 9999}}`)
	if code != 200 {
		t.Fatalf("re-request = %d: %v", code, out)
	}
	if cached, _ := out["cached"].(bool); !cached {
		t.Error("identical re-request missed the cache")
	}
	hits, misses := sc.Counter("serve.cache_hits").Value(), sc.Counter("serve.cache_misses").Value()
	if hits != 1 || misses != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 1/1", hits, misses)
	}

	// Generic-LUT mapping goes through the same oracle, mapped netlist
	// included.
	code, out = postSynth(t, h, `{"circuit": "cm42a", "options": {"mapper": "cuts", "lut": 4, "verify": true}}`)
	if code != 200 {
		t.Fatalf("cuts -lut 4 = %d: %v", code, out)
	}
	if v, _ := out["verified"].(bool); !v {
		t.Errorf("cuts -lut 4 verified = %v, want true", out["verified"])
	}
}

// TestBusyDaemonStaysHealthy runs more spans than a small span ring holds
// between two /healthz probes: six distinct cm42a misses (methods I–VI)
// record 100-odd spans into a 32-span ring. The daemon must stay healthy,
// and /metrics must still count every request's phases, because phase
// time is recorded as each span ends, not summed from the ring.
func TestBusyDaemonStaysHealthy(t *testing.T) {
	sc := obs.New(obs.Config{MaxSpans: 32})
	h := New(Config{MaxInflight: 1, Scope: sc}).Handler()
	get := func(path string) (int, string) {
		t.Helper()
		rr := httptest.NewRecorder()
		sc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code, rr.Body.String()
	}
	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz before any request = %d:\n%s", code, body)
	}
	for _, m := range []string{"I", "II", "III", "IV", "V", "VI"} {
		if code, out := postSynth(t, h, fmt.Sprintf(`{"circuit": "cm42a", "options": {"method": %q}}`, m)); code != 200 {
			t.Fatalf("method %s = %d: %v", m, code, out)
		}
	}
	if sc.SpansDropped() == 0 {
		t.Fatal("the span ring did not wrap; the test no longer exercises a busy daemon")
	}
	if code, body := get("/healthz"); code != 200 {
		t.Errorf("/healthz after six requests = %d, want 200:\n%s", code, body)
	}
	_, metrics := get("/metrics")
	for _, want := range []string{
		`powermap_phase_seconds_count{phase="map"} 6`,
		`powermap_phase_seconds_count{phase="quick-opt"} 6`,
		`powermap_serve_cache_misses 6`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentSynthesisThroughAdmission sends concurrent requests
// through admission into the real pipeline. Eight distinct (circuit,
// method) keys fill both synthesis slots and the six-deep waiting room, so
// every one must synthesize without a refusal; the concurrent repeat must
// then be served entirely from the cache with the same reports. Under
// -race this also exercises the admission semaphore and the cache.
func TestConcurrentSynthesisThroughAdmission(t *testing.T) {
	sc := obs.New(obs.Config{})
	s := New(Config{MaxInflight: 2, QueueDepth: 6, Scope: sc})
	h := s.Handler()
	var bodies []string
	for _, c := range []string{"cm42a", "x2"} {
		for _, m := range []string{"I", "II", "III", "IV"} {
			bodies = append(bodies, fmt.Sprintf(`{"circuit": %q, "options": {"method": %q}}`, c, m))
		}
	}
	pass := func(n int, wantCached bool) []Response {
		t.Helper()
		recs := make([]*httptest.ResponseRecorder, len(bodies))
		var wg sync.WaitGroup
		for i, body := range bodies {
			recs[i] = httptest.NewRecorder()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.ServeHTTP(recs[i], httptest.NewRequest("POST", "/synth", strings.NewReader(body)))
			}()
		}
		wg.Wait()
		out := make([]Response, len(bodies))
		for i, rec := range recs {
			if rec.Code != 200 {
				t.Fatalf("pass %d %s = %d: %s", n, bodies[i], rec.Code, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out[i]); err != nil {
				t.Fatalf("pass %d %s: %v", n, bodies[i], err)
			}
			if out[i].Cached != wantCached {
				t.Errorf("pass %d %s: cached = %v, want %v", n, bodies[i], out[i].Cached, wantCached)
			}
		}
		return out
	}
	first := pass(1, false)
	second := pass(2, true)
	for i := range bodies {
		if first[i].Report != second[i].Report || first[i].Method != second[i].Method {
			t.Errorf("%s: cached report %+v (method %s) != synthesized %+v (method %s)",
				bodies[i], second[i].Report, second[i].Method, first[i].Report, first[i].Method)
		}
	}
	if hits, misses := sc.Counter("serve.cache_hits").Value(), sc.Counter("serve.cache_misses").Value(); hits != 8 || misses != 8 {
		t.Errorf("cache counters = %d hits / %d misses, want 8/8", hits, misses)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"not json", `{`},
		{"unknown field", `{"circiut": "cm42a"}`},
		{"no circuit", `{"options": {}}`},
		{"both sources", `{"circuit": "cm42a", "blif": ".model m\n.end\n"}`},
		{"unknown circuit", `{"circuit": "nope"}`},
		{"bad blif", `{"blif": ".inputs a"}`},
		{"bad method", `{"circuit": "cm42a", "options": {"method": "VII"}}`},
		{"bad style", `{"circuit": "cm42a", "options": {"style": "cmos"}}`},
		{"bad mapper", `{"circuit": "cm42a", "options": {"mapper": "magic"}}`},
		{"lut with tree", `{"circuit": "cm42a", "options": {"mapper": "tree", "lut": 4}}`},
		{"bad prob", `{"circuit": "cm42a", "options": {"pi_prob": 1.5}}`},
		{"negative timeout", `{"circuit": "cm42a", "options": {"timeout_ms": -1}}`},
		// LUT arity is range-checked before any synthesis runs.
		{"lut above 6", `{"circuit": "cm42a", "options": {"lut": 7}}`},
		{"lut of 1", `{"circuit": "cm42a", "options": {"lut": 1}}`},
		{"negative lut", `{"circuit": "cm42a", "options": {"lut": -1}}`},
		{"cuts lut above 6", `{"circuit": "cm42a", "options": {"mapper": "cuts", "lut": 9}}`},
		{"tree negative lut", `{"circuit": "cm42a", "options": {"mapper": "tree", "lut": -3}}`},
	}
	for _, c := range cases {
		code, out := postSynth(t, h, c.body)
		if code != 400 {
			t.Errorf("%s: code = %d, want 400 (%v)", c.name, code, out)
		}
		if msg, _ := out["error"].(string); msg == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
	// The activity-engine options are gone from the synthesis path; the
	// strict decoder refuses each by name.
	for _, field := range []string{"activity", "vectors"} {
		code, out := postSynth(t, h, `{"circuit": "cm42a", "options": {"`+field+`": 1}}`)
		msg, _ := out["error"].(string)
		if code != 400 || !strings.Contains(msg, `unknown field "`+field+`"`) {
			t.Errorf("options.%s: code = %d, error %q; want 400 naming the field", field, code, msg)
		}
	}
	// GET is not part of the API surface.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/synth", nil))
	if rr.Code != 405 {
		t.Errorf("GET /synth = %d, want 405", rr.Code)
	}
}

// blockingServer returns a server whose run function parks until release
// is closed, signalling each entry on started.
func blockingServer(cfg Config) (s *Server, started chan struct{}, release chan struct{}) {
	s = New(cfg)
	started = make(chan struct{}, 16)
	release = make(chan struct{})
	s.run = func(ctx context.Context, _ *network.Network, _ Request, _ resolved) (*Response, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &Response{Circuit: "fake"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, started, release
}

func TestQueueFull429(t *testing.T) {
	s, started, release := blockingServer(Config{MaxInflight: 1, QueueDepth: -1})
	h := s.Handler()
	defer close(release)

	first := make(chan int)
	go func() {
		code, _ := postSynth(t, h, `{"circuit": "cm42a"}`)
		first <- code
	}()
	<-started // the only slot is now held

	code, out := postSynth(t, h, `{"circuit": "cm42a"}`)
	if code != 429 {
		t.Fatalf("over-capacity request = %d (%v), want 429", code, out)
	}
	release <- struct{}{}
	if code := <-first; code != 200 {
		t.Fatalf("blocked request = %d, want 200", code)
	}
}

func TestQueuedTimeout408(t *testing.T) {
	s, started, release := blockingServer(Config{MaxInflight: 1, QueueDepth: 4})
	h := s.Handler()
	defer close(release)

	first := make(chan int)
	go func() {
		code, _ := postSynth(t, h, `{"circuit": "cm42a"}`)
		first <- code
	}()
	<-started

	// This one queues behind the blocked slot and its budget expires there.
	code, out := postSynth(t, h, `{"circuit": "s208", "options": {"timeout_ms": 30}}`)
	if code != 408 {
		t.Fatalf("queued request = %d (%v), want 408", code, out)
	}
	release <- struct{}{}
	if code := <-first; code != 200 {
		t.Fatalf("blocked request = %d, want 200", code)
	}
}

func TestRunningTimeout408(t *testing.T) {
	s, started, release := blockingServer(Config{MaxInflight: 1})
	defer close(release)
	h := s.Handler()
	done := make(chan struct{})
	go func() { <-started; close(done) }()
	code, out := postSynth(t, h, `{"circuit": "cm42a", "options": {"timeout_ms": 30}}`)
	<-done
	if code != 408 {
		t.Fatalf("expired request = %d (%v), want 408", code, out)
	}
}

// TestOverBudget422 drives the real pipeline into its node-limit budget:
// the request fails with 422, the daemon's /healthz stays 200, and the
// next request still synthesizes.
func TestOverBudget422(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	h := s.Handler()

	code, out := postSynth(t, h, `{"circuit": "s344", "options": {"bdd_limit": 64}}`)
	if code != 422 {
		t.Fatalf("over-budget request = %d (%v), want 422", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "node limit") {
		t.Errorf("422 error does not name the node limit: %q", msg)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("/healthz after 422 = %d, want 200 (a refused request is not a sick daemon)", rr.Code)
	}
	if code, _ := postSynth(t, h, `{"circuit": "cm42a"}`); code != 200 {
		t.Fatalf("request after 422 = %d, want 200", code)
	}
}

func TestPanicContained500(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	s.run = func(context.Context, *network.Network, Request, resolved) (*Response, error) {
		panic("kaboom")
	}
	h := s.Handler()
	code, out := postSynth(t, h, `{"circuit": "cm42a"}`)
	if code != 500 {
		t.Fatalf("panicking request = %d (%v), want 500", code, out)
	}
	// The slot was released: a healthy run function serves again.
	s.run = func(context.Context, *network.Network, Request, resolved) (*Response, error) {
		return &Response{Circuit: "ok"}, nil
	}
	if code, _ := postSynth(t, h, `{"circuit": "s208"}`); code != 200 {
		t.Fatalf("request after panic = %d, want 200", code)
	}
}

// TestDrainNoLeak is the SIGTERM story under -race: with a request in
// flight, cancelling the serve context flips /readyz to 503 and refuses
// new synthesis, the in-flight request completes 200, ListenAndServe
// returns cleanly, and no goroutine survives.
func TestDrainNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s, started, release := blockingServer(Config{MaxInflight: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ListenAndServe(ctx, ln, s.Handler(), HTTPOptions{
			ShutdownGrace: 5 * time.Second,
			OnShutdown:    s.Drain,
		})
	}()
	base := "http://" + ln.Addr().String()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/synth", "application/json",
			strings.NewReader(`{"circuit": "cm42a"}`))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-started // request is inside the run function

	cancel() // the SIGTERM
	waitFor(t, "drain flag", s.draining.Load)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("/readyz during drain: %v", err)
	}
	var hs struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hs)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 503 || hs.Ready || !contains(hs.Reasons, "draining") {
		t.Fatalf("/readyz during drain = %d %+v (err %v), want 503 with reason draining", resp.StatusCode, hs, err)
	}
	resp, err = http.Post(base+"/synth", "application/json", strings.NewReader(`{"circuit": "s208"}`))
	if err != nil {
		t.Fatalf("/synth during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("/synth during drain = %d, want 503", resp.StatusCode)
	}

	release <- struct{}{} // let the in-flight request finish
	if code := <-inflight; code != 200 {
		t.Fatalf("in-flight request during drain = %d, want 200", code)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ListenAndServe after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
	close(release)

	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

func TestCanonicalKey(t *testing.T) {
	cacheKey := func(circuit, blifText string, o Options) string {
		t.Helper()
		r, err := o.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return cacheKey(circuit, blifText, r)
	}
	sparse := cacheKey("cm42a", "", Options{})
	explicit := cacheKey("cm42a", "", Options{
		Method: "vi", Style: "Static", Mapper: "dag",
		PIProb: 0.5, TimeoutMS: 12345,
	})
	if sparse != explicit {
		t.Error("defaulted and explicit spellings of one computation hash differently")
	}
	if cacheKey("cm42a", "", Options{Method: "I"}) == sparse {
		t.Error("different methods hash identically")
	}
	if cacheKey("s208", "", Options{}) == sparse {
		t.Error("different circuits hash identically")
	}
	if cacheKey("", ".model m\n.end\n", Options{}) == cacheKey("", ".model n\n.end\n", Options{}) {
		t.Error("different BLIF bodies hash identically")
	}
}

// TestResolveMapper: a request's "mapper" field selects the backend
// through mapper.ParseBackend, and tree and dag hash to different keys.
func TestResolveMapper(t *testing.T) {
	resolve := func(body string) resolved {
		t.Helper()
		var o Options
		if err := json.Unmarshal([]byte(body), &o); err != nil {
			t.Fatal(err)
		}
		r, err := o.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	tree := resolve(`{"mapper": "tree"}`)
	if tree.backend != mapper.BackendTree {
		t.Errorf(`{"mapper": "tree"} resolved to %v`, tree.backend)
	}
	if dag := resolve(`{}`); cacheKey("cm42a", "", tree) == cacheKey("cm42a", "", dag) {
		t.Error("tree and dag requests hash identically")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	sc := obs.New(obs.Config{})
	c := newCache(2, sc)
	c.put("a", &Response{Circuit: "a"})
	c.put("b", &Response{Circuit: "b"})
	c.get("a") // a is now most recent
	c.put("c", &Response{Circuit: "c"})
	if _, ok := c.get("b"); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used entry was evicted")
	}
	if evictions := sc.Counter("serve.cache_evictions").Value(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
