// Package exec is the pipeline's execution layer: a bounded worker pool
// with deterministic, index-ordered result collection, first-error
// cancellation, and panic capture. Every parallel phase of the flow
// (per-node decomposition planning, per-level curve construction in the
// mapper, per-(circuit, method) fan-out in the experiment harness) runs
// through this package, so the concurrency rules live in one place:
//
//   - Work items are claimed in index order and each item is computed by
//     exactly one goroutine; results land in a slice indexed by item, so
//     output order never depends on scheduling.
//   - The first failure (lowest item index) wins: its error is returned
//     and the shared context is cancelled so in-flight siblings can stop
//     early. Items after the failing one are skipped. A sibling's
//     context.Canceled that only echoes that cancel never wins over the
//     failure that caused it.
//   - A panic in a worker is captured and re-raised in the caller's
//     goroutine (lowest index first), preserving the sequential contract
//     that a panicking item takes the whole call down.
//   - workers <= 1 (or n <= 1) runs every item inline on the calling
//     goroutine with no pool at all, byte-for-byte reproducing the
//     sequential behavior.
//
// Determinism contract: callers must make each item's computation a pure
// function of its inputs (no shared mutable state, no map-iteration-order
// dependence). Under that contract the results are identical for every
// worker count.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"powermap/internal/obs"
)

// Workers resolves a Workers option: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

type labelKey struct{}

// WithLabel names the next pool invocation run under ctx for telemetry:
// when the context also carries an obs scope (obs.WithScope), each worker
// goroutine records a "<label>.worker" span on its own virtual track
// (named "<label>/w<i>"), and items run with that track on their context
// so nested phase spans nest per worker. The label is consumed by the
// pool: items run with it cleared, so unlabeled nested pools (e.g.
// per-match fan-out inside a level worker) stay silent instead of fighting
// over the worker tracks. An empty label disables worker telemetry.
func WithLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, labelKey{}, label)
}

func labelFrom(ctx context.Context) string {
	l, _ := ctx.Value(labelKey{}).(string)
	return l
}

// capturedPanic carries a worker panic to the calling goroutine.
type capturedPanic struct {
	value any
	stack []byte
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the error of the lowest failing index, or the
// context's error if it was cancelled before all items ran. On the first
// failure the context passed to still-running items is cancelled.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Inline sequential path: exact legacy behavior, zero goroutines.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64 // next unclaimed item
		failed atomic.Int64 // lowest failed item so far; n while none has
		wg     sync.WaitGroup
		mu     sync.Mutex
		errs   = map[int]error{}
		panics = map[int]capturedPanic{}
	)
	// Worker telemetry: with a scope and a pool label on the context, each
	// worker goroutine gets its own virtual track (stable across repeated
	// pool invocations with the same label) and records one span covering
	// its claim loop, so exporters can attribute pool time per worker. The
	// label is consumed here — items see it cleared.
	sc := obs.ScopeFrom(ctx)
	label := labelFrom(ctx)
	if label != "" {
		wctx = WithLabel(wctx, "")
	}
	// exec.inflight tracks concurrently-running pool workers across all
	// labeled pools; the health layer's runtime sampler picks it up like any
	// other gauge, so a hung pool is visible as a flat non-zero track.
	inflight := sc.Gauge("exec.inflight")
	failed.Store(int64(n))
	// record stores item i's error or panic and cancels its siblings.
	record := func(i int, err error, p *capturedPanic) {
		mu.Lock()
		if p != nil {
			panics[i] = *p
		} else {
			errs[i] = err
		}
		if int64(i) < failed.Load() {
			failed.Store(int64(i))
		}
		mu.Unlock()
		cancel()
	}
	worker := func(w int) {
		defer wg.Done()
		inflight.Add(1)
		defer inflight.Add(-1)
		ictx := wctx
		var span *obs.Span
		if sc.Enabled() && label != "" {
			tid := sc.TrackFor(fmt.Sprintf("%s/w%d", label, w))
			ictx = obs.WithTrack(wctx, tid)
			span = sc.StartCtx(ictx, label+".worker")
			span.SetAttr("worker", w)
		}
		items := 0
		defer func() {
			span.SetAttr("items", items)
			span.End()
		}()
		for {
			// Items behind a failure are skipped, but one claimed before it
			// still runs: its own failure is what a sequential run reports.
			i := int(next.Add(1)) - 1
			if i >= n || int64(i) > failed.Load() || ctx.Err() != nil {
				return
			}
			items++
			func() {
				defer func() {
					if r := recover(); r != nil {
						stack := make([]byte, 64<<10)
						stack = stack[:runtime.Stack(stack, false)]
						record(i, nil, &capturedPanic{value: r, stack: stack})
					}
				}()
				if err := fn(ictx, i); err != nil {
					record(i, err, nil)
				}
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker(w)
	}
	wg.Wait()

	first := int(failed.Load())
	if first == n {
		return ctx.Err()
	}
	// The lowest-index intrinsic failure wins: a panic, or an error that is
	// not cancellation noise from a sibling that observed an earlier
	// failure's cancel. The failure identity then matches what a sequential
	// run would report. If every error is noise, the lowest one is returned.
	var noise error
	for i := first; i < n; i++ {
		if p, ok := panics[i]; ok {
			panic(fmt.Sprintf("exec: worker panic on item %d: %v\n\nworker stack:\n%s", i, p.value, p.stack))
		}
		err, ok := errs[i]
		if !ok {
			continue
		}
		if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return err
		}
		if noise == nil {
			noise = err
		}
	}
	return noise
}

// Map runs fn over [0, n) like ForEach and collects the results in item
// order. On error the partial slice is discarded and only the error (per
// ForEach's lowest-index rule) is returned.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
