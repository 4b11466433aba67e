package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// Default hardening for every HTTP listener this repository opens (the
// pserve API and the CLI -serve telemetry endpoint share them).
const (
	// DefaultReadHeaderTimeout bounds how long a connection may dribble its
	// request headers, closing the slowloris hole a bare http.Serve leaves
	// open.
	DefaultReadHeaderTimeout = 5 * time.Second
	// DefaultIdleTimeout reclaims keep-alive connections that went quiet.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultShutdownGrace is how long Shutdown waits for in-flight
	// responses before the server is closed hard.
	DefaultShutdownGrace = 10 * time.Second
)

// HTTPOptions configures ListenAndServe's shutdown.
type HTTPOptions struct {
	// ShutdownGrace is how long in-flight responses get once the context
	// is cancelled; zero selects DefaultShutdownGrace.
	ShutdownGrace time.Duration
	// OnShutdown, when non-nil, runs as soon as the context is cancelled,
	// before Shutdown stops accepting connections — the place to flip
	// /readyz to draining and wait out in-flight synthesis work.
	OnShutdown func()
}

// ListenAndServe serves h on ln with read-header and idle timeouts until
// ctx is cancelled, then drains gracefully: OnShutdown runs, the listener
// stops accepting, and in-flight responses get ShutdownGrace to finish
// before the server closes hard. A clean drain returns nil (an interrupt
// is the intended way to stop, not an error); anything else is the serve
// or shutdown failure.
func ListenAndServe(ctx context.Context, ln net.Listener, h http.Handler, opts HTTPOptions) error {
	if opts.ShutdownGrace == 0 {
		opts.ShutdownGrace = DefaultShutdownGrace
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
	// The watcher goroutine must always be released, including when Serve
	// fails on its own (bad listener): cancelling on return guarantees it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if opts.OnShutdown != nil {
			opts.OnShutdown()
		}
		graceCtx, cancel := context.WithTimeout(context.Background(), opts.ShutdownGrace)
		defer cancel()
		err := srv.Shutdown(graceCtx)
		if err != nil {
			// Grace expired with responses still streaming: close hard
			// rather than hang the process on a stuck client.
			srv.Close()
		}
		shutdownErr <- err
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	select {
	case err := <-shutdownErr:
		return err
	case <-time.After(opts.ShutdownGrace + time.Second):
		return errors.New("serve: shutdown did not complete")
	}
}
