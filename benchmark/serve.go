package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"powermap/internal/blif"
	"powermap/internal/circuits"
	"powermap/internal/core"
	"powermap/internal/network"
)

// serveSpec is one serve workload's traffic against a pserve daemon at its
// defaults: one client on one connection sends each request as soon as
// the previous reply arrives (a closed loop), in windows of identical work.
type serveSpec struct {
	unique bool // every request a fresh circuit; else a hot key set
	// nominal is one request's typical time on a busy 2-CPU host. It sizes
	// the windows, and so the run's fixed work, to take about --seconds.
	nominal time.Duration
	// limit is the latency limit: a response counts toward throughput
	// only within it.
	limit time.Duration
	// timeout is the client timeout; a failed or refused request counts
	// as this latency.
	timeout time.Duration
}

func serveSpecFor(workload string) serveSpec {
	if workload == "serve-repeat" {
		return serveSpec{nominal: time.Millisecond, limit: 20 * time.Millisecond, timeout: 10 * time.Second}
	}
	return serveSpec{unique: true, nominal: 30 * time.Millisecond, limit: 1500 * time.Millisecond, timeout: 30 * time.Second}
}

// minWindow keeps even a short run's windows large enough for a median
// with ten samples beyond it.
const minWindow = 2 * minBeyond

// synthRequest and synthResponse are the parts of pserve's POST /synth
// JSON contract the benchmark uses.
type synthRequest struct {
	BLIF    string `json:"blif"`
	Options struct {
		Method string `json:"method"`
		Verify bool   `json:"verify"`
	} `json:"options"`
}

type synthResponse struct {
	Report    qor     `json:"report"`
	Verified  *bool   `json:"verified"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// mix hashes its arguments into one random-source seed.
func mix(xs ...int64) int64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= uint64(x)
		h *= 1099511628211
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// warmBody is serve-unique's warm-up request: a bundled circuit, the same
// for every seed.
const warmBody = `{"circuit": "cm42a", "options": {"method": "VI", "verify": true}}`

// poolCircuit builds entry k of the fixed circuit pool the serve workloads
// draw from, under the given model name: a random circuit with 6-9 inputs
// and 14-22 nodes (about 25 ms of synthesis) and the method to run it with
// (each block of six entries uses every method once). The pool does not
// depend on the seed. The seed picks the order and the names, and the
// names make every request's bytes, and so its cache key, distinct. Every
// seed thus asks for the same work, so a run's latency quantiles do not
// hinge on how many hard circuits its seed drew.
func poolCircuit(name string, k int) (*network.Network, core.Method) {
	r := rand.New(rand.NewSource(mix(int64(k))))
	npi := 6 + r.Intn(4)
	nodes := 14 + r.Intn(9)
	nw := circuits.Random(name, r.Int63(), npi, 2+npi/2, nodes)
	perm := rand.New(rand.NewSource(mix(int64(k/6), -1))).Perm(6)
	return nw, core.Methods()[perm[k%6]]
}

// poolBody is the request for pool entry k, named after the seed, the
// stream ("u" for unique requests, "key" for hot keys) and the index i.
func poolBody(seed int64, stream string, i, k int) ([]byte, error) {
	nw, m := poolCircuit(fmt.Sprintf("%s%d_%d", stream, seed, i), k)
	return requestBody(nw, m)
}

// requestBody is the POST /synth JSON for one circuit and method, with
// verification on.
func requestBody(nw *network.Network, m core.Method) ([]byte, error) {
	var text bytes.Buffer
	if err := blif.Write(&text, nw); err != nil {
		return nil, err
	}
	var req synthRequest
	req.BLIF = text.String()
	req.Options.Method = m.String()
	req.Options.Verify = true
	return json.Marshal(req)
}

// zipfKeys returns n draws of Zipf(1.1) over keys hot keys.
func zipfKeys(seed int64, keys, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(mix(seed, 12))), 1.1, 1, uint64(keys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// request is one timed request: its body and, for a hot key, the key's
// index (-1 for a unique request).
type request struct {
	body []byte
	key  int
}

// serveWindows returns windows of size requests each. Every window asks
// for the same work: on serve-unique the pool entries 0..size-1 in the
// window's own seeded order under fresh names, on serve-repeat the same
// size Zipf draws over the hot keys.
func serveWindows(seed int64, unique bool, keyBodies [][]byte, windows, size int) ([][]request, error) {
	out := make([][]request, windows)
	if !unique {
		draws := zipfKeys(seed, len(keyBodies), size)
		for w := range out {
			for _, k := range draws {
				out[w] = append(out[w], request{keyBodies[k], k})
			}
		}
		return out, nil
	}
	for w := range out {
		for j, k := range rand.New(rand.NewSource(mix(seed, 13, int64(w)))).Perm(size) {
			b, err := poolBody(seed, "u", w*size+j, k)
			if err != nil {
				return nil, err
			}
			out[w] = append(out[w], request{b, -1})
		}
	}
	return out, nil
}

// daemon is one pserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stdout bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startDaemon starts pserve on a free loopback port and waits for /readyz.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-log-level", "warn")
	d.cmd.Stdout = &d.stdout
	d.cmd.Stderr = os.Stderr
	// A benchmark killed mid-run takes its daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("pserve exited before ready: %v", d.err)
		default:
		}
		if resp, err := client.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("pserve not ready within 30s")
}

// stop sends SIGTERM, waits for the drain (killing the daemon after 15 s)
// and returns its standard output.
func (d *daemon) stop() (string, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the drain hung; Wait below reaps it
		<-d.exited
		return d.stdout.String(), fmt.Errorf("pserve did not drain within 15s")
	}
	return d.stdout.String(), d.err
}

// sample is one request's outcome.
type sample struct {
	latency time.Duration
	status  int // 0 on a transport error or timeout
	timeout bool
	resp    synthResponse
}

func post(ctx context.Context, client *http.Client, url string, body []byte) sample {
	var s sample
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			var data []byte
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				s.status = resp.StatusCode
				if s.status == http.StatusOK {
					err = json.Unmarshal(data, &s.resp)
				}
			}
		}
	}
	s.latency = time.Since(start)
	if err != nil {
		s.status = 0
		var ne net.Error
		s.timeout = errors.As(err, &ne) && ne.Timeout()
	}
	return s
}

// check returns why a response is wrong: not a 200, not verified, or (for
// a hot key) a report other than the key's warm-up report.
func (s sample) check(want *qor) error {
	switch {
	case s.status != http.StatusOK:
		return fmt.Errorf("status %d", s.status)
	case s.resp.Verified == nil || !*s.resp.Verified:
		return fmt.Errorf("response not verified")
	case want != nil && s.resp.Report != *want:
		return fmt.Errorf("report %+v, warm-up report %+v", s.resp.Report, *want)
	}
	return nil
}

// sequential sends the requests one after another, each as soon as the
// previous reply arrives, and returns their samples and the wall time.
func sequential(ctx context.Context, client *http.Client, url string, reqs []request) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		out[i] = post(ctx, client, url, r.body)
	}
	return out, time.Since(start)
}

// scrape reads the daemon's /metrics exposition into series → value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(data))
}

// parseExposition parses Prometheus text lines "series value", skipping
// comments; series keep their label set, e.g.
// powermap_phase_seconds_sum{phase="map"}.
func parseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// phaseSeconds is a phase's total span time in an exposition.
func phaseSeconds(m map[string]float64, phase string) float64 {
	return m[`powermap_phase_seconds_sum{phase="`+phase+`"}`]
}

// processCPU returns a process's user+system CPU seconds from
// /proc/<pid>/stat.
func processCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (ut + st) / ticksPerSecond, nil
}

// instance is what one pserve daemon measured in a serve run.
type instance struct {
	setup         float64            // seconds from exec until warmed up
	keyQoR        []qor              // each hot key's warm-up report
	warm          []sample           // untimed warm-up requests
	windows       [][]sample         // timed windows
	walls         []time.Duration    // each timed window's wall time
	before, after map[string]float64 // /metrics around the timed windows
	cpu           float64            // daemon CPU seconds in the timed windows
	rssMB         float64            // daemon peak resident set
	stdout        string             // daemon standard output, shutdown line included
}

// runInstance starts one daemon and times its set-up: exec, /readyz, then
// the set-up requests (one request, or every hot key, recording each
// report). It then sends the warm-up requests and the timed windows, and
// stops the daemon.
func runInstance(ctx context.Context, cfg config, client *http.Client, setupReqs, warm []request, windows [][]request) (*instance, error) {
	start := time.Now()
	d, err := startDaemon(cfg.pserve, client)
	if err != nil {
		return nil, err
	}
	defer d.stop() // a no-op signal once the daemon has been stopped below
	url := d.base + "/synth"
	in := &instance{}
	samples, _ := sequential(ctx, client, url, setupReqs)
	for i, s := range samples {
		if err := s.check(nil); err != nil {
			return nil, fmt.Errorf("set-up request %d: %w", i, err)
		}
		in.keyQoR = append(in.keyQoR, s.resp.Report)
	}
	in.setup = time.Since(start).Seconds()

	pid := d.cmd.Process.Pid
	in.warm, _ = sequential(ctx, client, url, warm)
	if in.before, err = scrape(client, d.base); err != nil {
		return nil, err
	}
	cpu0, err := processCPU(pid)
	if err != nil {
		return nil, err
	}
	for _, reqs := range windows {
		samples, wall := sequential(ctx, client, url, reqs)
		in.windows, in.walls = append(in.windows, samples), append(in.walls, wall)
	}
	cpu1, err := processCPU(pid)
	if err != nil {
		return nil, err
	}
	in.cpu = cpu1 - cpu0
	if in.after, err = scrape(client, d.base); err != nil {
		return nil, err
	}
	if in.rssMB, err = peakRSSMB(strconv.Itoa(pid)); err != nil {
		return nil, err
	}
	in.stdout, err = d.stop()
	return in, err
}

// runServe measures a serve workload. The timed windows are split evenly
// over cfg.setupSamples daemons, started one after another, so one daemon
// whose process happened to land in a slow state owns a minority of them.
func runServe(cfg config) (*result, error) {
	spec := serveSpecFor(cfg.workload)
	daemons := cfg.setupSamples
	if daemons < 1 || cfg.windows%daemons != 0 {
		return nil, fmt.Errorf("%d windows do not split evenly over %d daemons", cfg.windows, daemons)
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   spec.timeout,
	}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Inputs: the hot keys, the timed windows, and one more window per
	// daemon whose first quarter warms it up untimed.
	setupReqs := []request{{[]byte(warmBody), -1}}
	var keyBodies [][]byte
	if !spec.unique {
		setupReqs = nil
		for k := 0; k < cfg.keys; k++ {
			b, err := poolBody(cfg.seed, "key", k, k)
			if err != nil {
				return nil, err
			}
			setupReqs = append(setupReqs, request{b, k})
			keyBodies = append(keyBodies, b)
		}
	}
	size := max(minWindow, int(cfg.seconds/(float64(cfg.windows)+0.25*float64(daemons))/spec.nominal.Seconds()))
	windows, err := serveWindows(cfg.seed, spec.unique, keyBodies, cfg.windows+daemons, size)
	if err != nil {
		return nil, err
	}
	per := cfg.windows / daemons
	var instances []*instance
	for j := 0; j < daemons; j++ {
		in, err := runInstance(ctx, cfg, client, setupReqs, windows[cfg.windows+j][:size/4], windows[j*per:(j+1)*per])
		if err != nil {
			return nil, err
		}
		instances = append(instances, in)
	}

	res := &result{values: map[string]float64{}}
	v := res.values
	var (
		clientMS, serviceMS  []float64
		hits, ok200, refused int
		tout, timed          int
		perWindow            []windowStats
		setups, rss, reuse   []float64
		cpu                  float64
	)
	// account counts one request and reports whether it was correct. A hot
	// key's report must equal the first daemon's warm-up report for it.
	account := func(s sample, r request) bool {
		res.attempted++
		var want *qor
		if r.key >= 0 {
			want = &instances[0].keyQoR[r.key]
		}
		if err := s.check(want); err != nil {
			res.fail("request %d: %v", res.attempted, err)
			return false
		}
		return true
	}
	for j, in := range instances {
		setups, rss = append(setups, in.setup), append(rss, in.rssMB)
		reuse = append(reuse, poolReuseFrac(in.stdout))
		cpu += in.cpu
		for i, s := range in.warm {
			account(s, windows[cfg.windows+j][i])
		}
		for w, samples := range in.windows {
			reqs := windows[j*per+w]
			ws := windowStats{wall: in.walls[w]}
			for i, s := range samples {
				timed++
				switch {
				case s.status == http.StatusOK:
					ok200++
					if s.resp.Cached {
						hits++
					}
				case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
					refused++
				case s.status == http.StatusRequestTimeout || s.timeout:
					tout++
				}
				ms := millis(spec.timeout)
				if account(s, reqs[i]) {
					ms = millis(s.latency)
					clientMS = append(clientMS, ms-s.resp.ElapsedMS)
					serviceMS = append(serviceMS, s.resp.ElapsedMS)
					if s.latency <= spec.limit {
						ws.good++
					}
				}
				ws.ms = append(ws.ms, ms)
			}
			perWindow = append(perWindow, ws)
		}
	}
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = median(rss)
	if err := windowMetrics(v, perWindow); err != nil {
		return nil, err
	}

	// Per-layer metrics: client-side, then pserve's /metrics over the
	// timed windows (per cache miss) and its shutdown line.
	v["serve.cache_hit_frac"] = float64(hits) / float64(max(1, ok200))
	v["serve.client_ms_p50"] = orZero(median(clientMS))
	v["serve.service_ms_p50"] = orZero(median(serviceMS))
	v["serve.refused_frac"] = float64(refused) / float64(timed)
	v["serve.timeout_frac"] = float64(tout) / float64(timed)
	v["cpu_ms_per_op"] = cpu * 1000 / float64(timed)
	delta := func(series string) (d float64) {
		for _, in := range instances {
			d += in.after[series] - in.before[series]
		}
		return d
	}
	phaseDelta := func(phase string) (d float64) {
		for _, in := range instances {
			d += phaseSeconds(in.after, phase) - phaseSeconds(in.before, phase)
		}
		return d
	}
	misses := delta("powermap_serve_cache_misses")
	perMiss := func(x float64) float64 {
		if misses == 0 {
			return 0
		}
		return x / misses
	}
	for _, l := range layerSpans {
		var s float64
		for _, name := range l.spans {
			s += phaseDelta(name)
		}
		v[l.metric] = perMiss(s * 1000)
	}
	v["serve.cache_evictions"] = delta("powermap_serve_cache_evictions")
	for _, in := range instances {
		v["bdd.nodes_live_max"] = max(v["bdd.nodes_live_max"], in.after["powermap_bdd_nodes_live_max"])
	}
	v["decomp.nodes_planned"] = perMiss(delta("powermap_decomp_nodes_planned"))
	v["mapper.sites_selected"] = perMiss(delta("powermap_mapper_sites_selected"))
	v["mapper.cuts_enumerated"] = perMiss(delta("powermap_mapper_cuts_enumerated"))
	v["mapper.npn_hit_frac"] = hitFrac(delta("powermap_mapper_npn_cache_hits"), delta("powermap_mapper_npn_cache_misses"))
	v["bdd.pool_reuse_frac"] = median(reuse)
	// The daemon's runtime allocation and the benchmark's own trace are
	// not visible from the client.
	for _, name := range []string{"runtime.alloc_mb", "runtime.gc_cpu_frac", "bench.trace_overhead_frac", "bench.self_frac"} {
		v[name] = 0
	}

	// Spot checks outside the timed windows: pserve's reports must equal an
	// in-process synthesis of the BLIF it was sent.
	for i := 0; i < spotChecks; i++ {
		res.attempted++
		body, got := windows[0][i].body, instances[0].windows[0][i].resp.Report
		if !spec.unique {
			body, got = keyBodies[i%cfg.keys], instances[0].keyQoR[i%cfg.keys]
		}
		if err := spotCheck(ctx, body, got); err != nil {
			res.fail("spot check %d: %v", i, err)
		}
	}
	v["fail_frac"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

// spotChecks is how many reports per run are recomputed in-process.
const spotChecks = 4

// spotCheck synthesizes a request's BLIF in-process with pserve's settings
// (one worker, defaults otherwise) and compares the report with got.
func spotCheck(ctx context.Context, body []byte, got qor) error {
	var req synthRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	nw, err := blif.ParseString(req.BLIF)
	if err != nil {
		return err
	}
	var method core.Method
	for _, m := range core.Methods() {
		if m.String() == req.Options.Method {
			method = m
		}
	}
	r, err := core.SynthesizeContext(ctx, nw, core.Options{Method: method, Workers: 1})
	if err != nil {
		return fmt.Errorf("in-process synthesis: %w", err)
	}
	if qorOf(r.Report) != got {
		return fmt.Errorf("pserve reported %+v, in-process %+v", got, qorOf(r.Report))
	}
	return nil
}

// poolReuseFrac reads "pool reuses N, allocs M" from pserve's shutdown
// line: the share of BDD-manager requests the warm pool answered.
func poolReuseFrac(stdout string) float64 {
	var reuses, allocs float64
	i := strings.Index(stdout, "pool reuses ")
	if i < 0 {
		return 0
	}
	if _, err := fmt.Sscanf(stdout[i:], "pool reuses %g, allocs %g", &reuses, &allocs); err != nil || reuses+allocs == 0 {
		return 0
	}
	return reuses / (reuses + allocs)
}

func orZero(x float64) float64 {
	if x != x { // NaN: no samples
		return 0
	}
	return x
}
