package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"powermap/internal/journal"
	"powermap/internal/obs"
	"powermap/internal/serve"
)

// startProfiles starts a CPU profile and/or arranges a heap profile per
// the -cpuprofile/-memprofile flags. The returned stop function must be
// called exactly once (it finalizes both profiles); it is non-nil even
// when both paths are empty.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			runtime.GC() // publish up-to-date allocation statistics
			return writeTo(memPath, pprof.WriteHeapProfile)
		}
		return nil
	}, nil
}

// telemetry bundles the observability flags shared by every command
// (-v, -stats/-stats-out, -trace, -serve, -max-spans, -run-id, plus the
// obsFlags set: -flight, -sample-interval, -budget, -log-level, -log-json)
// and the scope they configure. Register with addTelemetryFlags, build the
// scope once with scope(), and call finish() after the run to route the
// exports, stop the runtime sampler, and unhook the SIGQUIT dumper.
type telemetry struct {
	verbose  *bool
	stats    *bool
	statsOut *string
	trace    *string
	serve    *string
	maxSpans *int
	runID    *string
	obsf     *obsFlags
	sc       *obs.Scope
	logger   *slog.Logger
	sampler  *obs.RuntimeSampler
	stopSigq func()
	built    bool
}

// addTelemetryFlags registers the shared observability flags on fs.
func addTelemetryFlags(fs *flag.FlagSet) *telemetry {
	t := &telemetry{}
	t.verbose = fs.Bool("v", false, "log phase spans to stderr as they complete")
	t.stats = fs.Bool("stats", false, "export a JSON metrics/trace snapshot after the run")
	t.statsOut = fs.String("stats-out", "", "snapshot destination: a file, \"-\" for stdout (default stderr)")
	t.trace = fs.String("trace", "", "write a Chrome/Perfetto trace-event JSON file (open in ui.perfetto.dev)")
	t.serve = fs.String("serve", "", "after the run, serve /metrics, /snapshot, /trace, /healthz, /readyz, /debug/flight and /debug/pprof on this address (e.g. :9090) until interrupted")
	t.maxSpans = fs.Int("max-spans", 0, "completed-span ring buffer size (0 = default 16384, negative = unbounded)")
	t.runID = fs.String("run-id", "", "run identifier stamped into snapshots, traces and decision journals (default: generated)")
	t.obsf = addObsFlags(fs)
	return t
}

// resolveRunID returns the -run-id value, generating (and pinning) a fresh
// one on first use when the flag was left empty — so the journal headers,
// the stats snapshot and the trace metadata of one invocation all carry
// the same ID.
func (t *telemetry) resolveRunID() string {
	if *t.runID == "" {
		*t.runID = journal.NewRunID()
	}
	return *t.runID
}

// scope builds (once) the scope implied by the flags: nil when every
// telemetry flag is off, so the pipeline keeps its zero-cost path. A live
// scope gets the full continuous-observability wiring: budgets installed,
// flight auto-dump armed, the runtime sampler started, the SIGQUIT dumper
// hooked, and the shared -log-level/-log-json logging chain (teed into the
// flight recorder) installed as the span sink when -v is on.
func (t *telemetry) scope(errOut io.Writer) *obs.Scope {
	if t.built {
		return t.sc
	}
	t.built = true
	if !*t.verbose && !*t.stats && *t.trace == "" && *t.serve == "" && !t.obsf.enabled() {
		return nil
	}
	runID := t.resolveRunID()
	t.sc = obs.New(obs.Config{MaxSpans: *t.maxSpans, RunID: runID})
	t.sampler = t.obsf.apply(t.sc)
	t.logger = t.obsf.buildLogger(t.sc, errOut, runID)
	if *t.verbose {
		t.sc.SetSpanLogger(t.logger)
	}
	if *t.obsf.flight != "" {
		t.stopSigq = notifyFlightOnQuit(t.sc, *t.obsf.flight, errOut)
	}
	return t.sc
}

// finish routes the post-run exports: the -stats snapshot to -stats-out
// (stderr by default, "-" for the primary output writer), the -trace file,
// and finally the blocking -serve endpoint. The runtime sampler keeps
// running while -serve is live (a scraping Prometheus should see fresh
// samples) and is stopped otherwise; the SIGQUIT dumper is unhooked either
// way once serving ends.
func (t *telemetry) finish(out, errOut io.Writer) error {
	if t.sc == nil {
		return nil
	}
	if *t.serve == "" {
		t.sampler.Stop()
		t.sampler = nil
		if t.stopSigq != nil {
			t.stopSigq()
			t.stopSigq = nil
		}
	}
	sn := t.sc.Snapshot()
	if *t.stats {
		switch *t.statsOut {
		case "":
			if err := sn.WriteJSON(errOut); err != nil {
				return err
			}
		case "-":
			if err := sn.WriteJSON(out); err != nil {
				return err
			}
		default:
			if err := writeTo(*t.statsOut, sn.WriteJSON); err != nil {
				return err
			}
		}
	}
	if *t.trace != "" {
		if err := writeTo(*t.trace, sn.WriteTraceEvents); err != nil {
			return err
		}
	}
	if *t.serve != "" {
		return serveTelemetry(*t.serve, t.sc, errOut)
	}
	return nil
}

// writeTo writes one export to a freshly created file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveTelemetry keeps the process alive serving the scope's live
// telemetry endpoints, so the snapshot can be scraped and the heap/CPU
// profiled after (or during, when started from another goroutine) a run.
// The server carries the shared hardening (header/idle timeouts) and
// SIGINT/SIGTERM triggers a graceful shutdown: open scrapes finish instead
// of being cut mid-response by the bare http.Serve this replaced.
func serveTelemetry(addr string, sc *obs.Scope, errOut io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(errOut, "serving /metrics, /snapshot, /trace, /healthz, /readyz, /debug/flight and /debug/pprof on http://%s (interrupt to stop)\n", ln.Addr())
	return serve.ListenAndServe(ctx, ln, sc.Handler(), serve.HTTPOptions{})
}
