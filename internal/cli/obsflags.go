package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powermap/internal/obs"
)

// obsFlags bundles the continuous-observability flags shared by every
// command: flight recording (-flight), runtime-resource sampling
// (-sample-interval), per-phase SLO budgets (-budget, repeatable), and the
// uniform structured-logging controls (-log-level, -log-json). It is
// registered by addTelemetryFlags on the four commands that share the
// telemetry bundle, and directly by pserve, which serves its scope for
// its whole life instead of exporting it after one run.
type obsFlags struct {
	flight         *string
	sampleInterval *time.Duration
	logLevel       *string
	logJSON        *bool
	budgets        []obs.Budget
}

// addObsFlags registers the shared observability flags on fs.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	o.flight = fs.String("flight", "",
		"flight-record destination: on failure (first error wins) or SIGQUIT, dump a post-mortem JSON of the last spans, logs, runtime samples and SLO breaches here")
	o.sampleInterval = fs.Duration("sample-interval", 0,
		"runtime-resource sampler cadence (heap, GC pauses, goroutines, sched latency, RSS) exported as powermap_runtime_* metrics; 0 disables")
	o.logLevel = fs.String("log-level", "info", "minimum structured-log level: debug, info, warn, error")
	o.logJSON = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
	fs.Func("budget",
		"per-phase SLO `phase=spec` (repeatable): spec is a duration (decompose=200ms), a live-BDD-node ceiling (map=50000nodes), or both (map=1s,50000nodes); breaches count in powermap_slo_breaches and flip /healthz to 503",
		func(s string) error {
			b, err := obs.ParseBudget(s)
			if err != nil {
				return err
			}
			o.budgets = append(o.budgets, b)
			return nil
		})
	return o
}

// enabled reports whether any obs flag demands a live scope on its own.
func (o *obsFlags) enabled() bool {
	return *o.flight != "" || *o.sampleInterval > 0 || len(o.budgets) > 0
}

// logOptions resolves the logging flags into the shared handler options.
func (o *obsFlags) logOptions(runID string) obs.LogOptions {
	return obs.LogOptions{
		Level: obs.ParseLogLevel(*o.logLevel),
		JSON:  *o.logJSON,
		RunID: runID,
	}
}

// apply configures a freshly built scope from the flags and returns the
// started sampler (nil when -sample-interval is off). The caller owns
// stopping the sampler.
func (o *obsFlags) apply(sc *obs.Scope) *obs.RuntimeSampler {
	sc.SetBudgets(o.budgets)
	sc.Flight().SetAutoDump(*o.flight)
	if *o.sampleInterval > 0 {
		return sc.StartRuntimeSampler(context.Background(), *o.sampleInterval)
	}
	return nil
}

// notifyFlightOnQuit arranges for SIGQUIT to dump an on-demand flight
// record to the -flight path (stderr reports where it went). Registering
// replaces Go's default SIGQUIT stack-dump-and-exit: the process keeps
// running, so a wedged run can be probed repeatedly. The returned stop
// function unregisters the handler (restoring the default behavior).
func notifyFlightOnQuit(sc *obs.Scope, path string, errOut io.Writer) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
			fr := sc.Flight().Capture("sigquit", nil)
			if fr == nil {
				continue
			}
			if err := writeTo(path, fr.WriteJSON); err != nil {
				fmt.Fprintf(errOut, "flight: SIGQUIT dump: %v\n", err)
				continue
			}
			fmt.Fprintf(errOut, "flight record written to %s (SIGQUIT)\n", path)
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
		<-done
	}
}

// buildLogger assembles the uniform logging chain for a scope: the shared
// text/JSON handler (run-id stamped, context labels appended) teed through
// the scope's flight recorder so the black box sees every record the
// console does — and the debug-level ones it does not.
func (o *obsFlags) buildLogger(sc *obs.Scope, errOut io.Writer, runID string) *slog.Logger {
	console := obs.NewLogHandler(errOut, o.logOptions(runID))
	return slog.New(sc.Flight().LogHandler(console))
}
