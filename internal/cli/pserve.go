package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powermap/internal/journal"
	"powermap/internal/obs"
	"powermap/internal/serve"
)

// Pserve runs the synthesis daemon: POST /synth plus the full telemetry
// surface, until SIGINT/SIGTERM starts a graceful drain. It blocks for
// the life of the daemon.
func Pserve(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pserve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		inflight   = fs.Int("inflight", 0, "max concurrently synthesizing requests (0 = one per CPU)")
		queue      = fs.Int("queue", 0, "max requests waiting for a slot before 429 (0 = 2x -inflight, negative = no waiting room)")
		cacheSize  = fs.Int("cache", 0, "result cache entries (0 = default 128)")
		workers    = fs.Int("workers", 1, "per-request pipeline workers (the daemon parallelizes across requests)")
		defTimeout = fs.Duration("default-timeout", time.Minute, "budget for requests without timeout_ms")
		maxTimeout = fs.Duration("max-timeout", 5*time.Minute, "ceiling clamped onto requested timeouts")
		bddLimit   = fs.Int("bdd-limit", 0, "server-wide BDD live-node ceiling; requests may only lower it (0 = kernel default)")
		grace      = fs.Duration("grace", serve.DefaultShutdownGrace, "shutdown grace for in-flight responses after the drain completes")
		maxSpans   = fs.Int("max-spans", 0, "completed-span ring buffer size (0 = default 16384, negative = unbounded)")
		runID      = fs.String("run-id", "", "run identifier stamped into telemetry (default: generated)")
	)
	obsf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runID == "" {
		*runID = journal.NewRunID()
	}
	// The daemon always carries a live scope: /metrics, /healthz and the
	// flight recorder are part of its contract, not an opt-in.
	sc := obs.New(obs.Config{MaxSpans: *maxSpans, RunID: *runID})
	sampler := obsf.apply(sc)
	defer sampler.Stop()
	sc.SetSpanLogger(obsf.buildLogger(sc, errOut, *runID))
	if *obsf.flight != "" {
		stopSigq := notifyFlightOnQuit(sc, *obsf.flight, errOut)
		defer stopSigq()
	}

	srv := serve.New(serve.Config{
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		Workers:        *workers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		BDDLimit:       *bddLimit,
		Scope:          sc,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(errOut, "pserve: serving POST /synth (+ /metrics, /healthz, /readyz, /debug/flight, /debug/pprof) on http://%s (run %s; SIGTERM to drain)\n",
		ln.Addr(), *runID)
	err = serve.ListenAndServe(ctx, ln, srv.Handler(), serve.HTTPOptions{
		ShutdownGrace: *grace,
		OnShutdown: func() {
			fmt.Fprintln(errOut, "pserve: draining (in-flight requests finishing, new work refused)")
			srv.Drain()
		},
	})
	fmt.Fprintln(out, "pserve: stopped")
	return err
}
