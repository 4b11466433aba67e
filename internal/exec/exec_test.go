package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powermap/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS = %d", n, got, want)
		}
	}
}

// Results must land in item order for every worker count, and every item
// must run exactly once.
func TestMapDeterministicOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 3, 8, 64} {
		var ran atomic.Int64
		out, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != n {
			t.Errorf("workers=%d: ran %d items, want %d", workers, ran.Load(), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// The lowest failing index must win regardless of scheduling, matching
// what a sequential run would report.
func TestForEachFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEach(context.Background(), workers, 50, func(_ context.Context, i int) error {
			if i == 7 || i == 30 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Errorf("workers=%d: err = %v, want item 7's error", workers, err)
		}
	}
}

// After the first error, unclaimed items must be skipped (cancellation).
func TestForEachCancelsSiblings(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(context.Background(), 2, 1000, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() == 1000 {
		t.Error("no items were skipped after the first error")
	}
}

func TestForEachRespectsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, workers, 10, func(context.Context, int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "item 3") || !strings.Contains(msg, "kaboom") {
					t.Errorf("workers=%d: panic value %v missing item index or cause", workers, r)
				}
			}()
			_ = ForEach(context.Background(), workers, 10, func(_ context.Context, i int) error {
				if i == 3 {
					panic("kaboom")
				}
				return nil
			})
		}()
	}
}

// forEachWithin runs ForEach on another goroutine and fails the test if it
// does not return within five seconds, so a busy-looping failure scan fails
// the test instead of hanging it. A panic from ForEach comes back as its
// recovered value.
func forEachWithin(t *testing.T, workers, n int, fn func(ctx context.Context, i int) error) (panicked any, err error) {
	t.Helper()
	type outcome struct {
		err      error
		panicked any
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			done <- o
		}()
		o.err = ForEach(context.Background(), workers, n, fn)
	}()
	select {
	case o := <-done:
		return o.panicked, o.err
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return within 5s")
		return nil, nil
	}
}

// A panic behind a lower-index sibling that only returned its cancelled
// context's error must still take the call down: the sibling's
// context.Canceled is noise caused by the panic, not a failure of its own.
func TestForEachPanicBehindCanceledSibling(t *testing.T) {
	r, err := forEachWithin(t, 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("kaboom")
		}
		<-ctx.Done()
		return ctx.Err()
	})
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "item 1") || !strings.Contains(msg, "kaboom") {
		t.Errorf("panic = %v, err = %v; want item 1's panic re-raised", r, err)
	}
}

// When every error is context.Canceled on a live caller context, ForEach
// returns the lowest-index one.
func TestForEachOnlyCancellationErrors(t *testing.T) {
	own := fmt.Errorf("item 1: %w", context.Canceled)
	// Item 1 fails with cancellation alone.
	r, err := forEachWithin(t, 2, 4, func(_ context.Context, i int) error {
		if i == 1 {
			return own
		}
		return nil
	})
	if r != nil || err != own {
		t.Errorf("lone cancellation: err = %v, panic = %v; want item 1's error", err, r)
	}
	// Item 0 then echoes the cancel that item 1's error caused. Item 1
	// fails only once item 0 is running, so both errors are recorded.
	started := make(chan struct{})
	r, err = forEachWithin(t, 2, 4, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			close(started)
			<-ctx.Done()
			return ctx.Err()
		case 1:
			<-started
			return own
		}
		return nil
	})
	if r != nil || err != context.Canceled {
		t.Errorf("all cancellation: err = %v, panic = %v; want item 0's context.Canceled", err, r)
	}
}

// A worker-count of 1 must not spawn goroutines and must stop at the
// first error without touching later items, like a plain loop.
func TestSequentialPathStopsAtError(t *testing.T) {
	var ran int
	err := ForEach(context.Background(), 1, 10, func(_ context.Context, i int) error {
		ran++
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 5 {
		t.Errorf("ran = %d, err = %v; want 5 items and an error", ran, err)
	}
}

func TestEmptyInput(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
	out, err := Map(context.Background(), 4, 0, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("Map n=0: out=%v err=%v", out, err)
	}
}

// TestWorkerTelemetry checks the pool's instrumentation contract: with a
// scope and a label on the context each worker records one span on its own
// virtual track, the label is consumed so nested pools stay silent, and
// the per-worker item counts sum to the task count.
func TestWorkerTelemetry(t *testing.T) {
	sc := obs.New(obs.Config{})
	ctx := obs.WithScope(context.Background(), sc)
	ctx = WithLabel(ctx, "pool")
	const n = 32
	err := ForEach(ctx, 4, n, func(ctx context.Context, i int) error {
		// A nested unlabeled pool must not record worker spans.
		return ForEach(ctx, 2, 2, func(context.Context, int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	tracks := map[int64]bool{}
	for _, sp := range sc.Spans() {
		if sp.Name != "pool.worker" {
			t.Fatalf("unexpected span %q (nested pool leaked telemetry?)", sp.Name)
		}
		if sp.Track == 0 {
			t.Error("worker span on the coordinator track")
		}
		tracks[sp.Track] = true
		iv, ok := sp.Attrs["items"].(int64)
		if !ok {
			t.Fatalf("worker span missing items attr: %#v", sp.Attrs)
		}
		items += int(iv)
	}
	if spans := len(sc.Spans()); spans != 4 {
		t.Errorf("got %d worker spans, want 4", spans)
	}
	if len(tracks) != 4 {
		t.Errorf("workers shared tracks: %v", tracks)
	}
	if items != n {
		t.Errorf("worker item counts sum to %d, want %d", items, n)
	}
	names := sc.TrackNames()
	if len(names) != 4 {
		t.Errorf("track names = %v", names)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "pool/w") {
			t.Errorf("track name %q does not follow label/wN", name)
		}
	}
}

// TestWorkerTelemetryDisabled pins the zero-overhead contract: without a
// label (or without a scope) the pool records nothing.
func TestWorkerTelemetryDisabled(t *testing.T) {
	sc := obs.New(obs.Config{})
	ctx := obs.WithScope(context.Background(), sc)
	if err := ForEach(ctx, 4, 8, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if spans := sc.Spans(); len(spans) != 0 {
		t.Errorf("unlabeled pool recorded spans: %v", spans)
	}
	// Label but nil scope: no panic, no telemetry.
	ctx = WithLabel(context.Background(), "pool")
	if err := ForEach(ctx, 4, 8, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
