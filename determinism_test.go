package powermap

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"powermap/internal/core"
	"powermap/internal/eval"
)

// synthSignature captures everything a downstream consumer can observe
// about a synthesis result: the serialized mapped netlist, the gate list
// in emission order, and the priced report.
func synthSignature(t *testing.T, res *Result) string {
	t.Helper()
	var blif bytes.Buffer
	if err := res.Netlist.WriteBLIF(&blif); err != nil {
		t.Fatal(err)
	}
	var gates strings.Builder
	for _, g := range res.Netlist.Gates {
		fmt.Fprintf(&gates, "%s=%s(", g.Root.Name, g.Cell.Name)
		for i, in := range g.Inputs {
			if i > 0 {
				gates.WriteByte(',')
			}
			gates.WriteString(in.Name)
		}
		gates.WriteString(")\n")
	}
	return fmt.Sprintf("report=%+v\ngates:\n%s\nblif:\n%s",
		res.Report, gates.String(), blif.String())
}

// TestSynthesizeDeterministicAcrossWorkers is the concurrency contract of
// the pipeline: for every worker count the mapped netlist, its gate order,
// and the priced report are byte-identical to the sequential run — on the
// dag, tree and cuts mapper backends.
func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	type mode struct {
		name    string
		backend MapperBackend
	}
	modes := []mode{
		{"dag", BackendStructural},
		{"tree", BackendTree},
		{"cuts", BackendCuts},
	}
	for _, name := range []string{"cm42a", "x2", "s208"} {
		for _, md := range modes {
			t.Run(fmt.Sprintf("%s/%s", name, md.name), func(t *testing.T) {
				b, err := BenchmarkByName(name)
				if err != nil {
					t.Fatal(err)
				}
				var want string
				for _, w := range []int{1, 2, 8} {
					res, err := SynthesizeContext(context.Background(), b.Build(), Options{
						Method:  MethodVI,
						Style:   Static,
						Mapper:  md.backend,
						Workers: w,
					})
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					got := synthSignature(t, res)
					if w == 1 {
						want = got
						continue
					}
					if got != want {
						t.Errorf("workers=%d diverged from sequential run:\n--- want ---\n%s\n--- got ---\n%s",
							w, want, got)
					}
				}
			})
		}
	}
}

// TestRunSuiteDeterministicAcrossWorkers pins the harness-level fan-out:
// the formatted Tables 2/3 must not depend on the worker count.
func TestRunSuiteDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("suite determinism test skipped in -short mode")
	}
	names := []string{"cm42a", "x2"}
	render := func(rows []eval.CircuitRow) string {
		return eval.FormatTable(rows, []core.Method{MethodI, MethodII, MethodIII}) +
			eval.FormatTable(rows, []core.Method{MethodIV, MethodV, MethodVI})
	}
	var want string
	for _, w := range []int{1, 4} {
		rows, err := RunSuite(Methods(), Options{Style: Static, Workers: w}, names)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := render(rows)
		if w == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d tables diverged from sequential run:\n--- want ---\n%s\n--- got ---\n%s",
				w, want, got)
		}
	}
}

// TestSynthesizeContextCancel checks that a canceled context aborts the
// run with a context error rather than a partial result.
func TestSynthesizeContextCancel(t *testing.T) {
	b, err := BenchmarkByName("cm42a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SynthesizeContext(ctx, b.Build(), Options{Method: MethodVI, Style: Static})
	if err == nil {
		t.Fatal("want error from canceled context, got result")
	}
	if res != nil {
		t.Fatalf("want nil result on cancellation, got %v", res)
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error %q does not mention cancellation", err)
	}
}

// TestSampleActivitiesDeterministicAcrossWorkers pins the sampling
// engine's concurrency contract at the facade: for every worker count the
// bit-parallel estimates are identical, including at vector counts that
// are multiples of neither the 64-lane word nor the chunk size.
func TestSampleActivitiesDeterministicAcrossWorkers(t *testing.T) {
	b, err := BenchmarkByName("cm42a")
	if err != nil {
		t.Fatal(err)
	}
	nw := b.Build()
	order := nw.TopoOrder()
	for _, vectors := range []int{777, 1537} {
		var want *SamplingResult
		for _, w := range []int{1, 2, 8} {
			res, err := SampleActivities(context.Background(), nw, nil, SamplingOptions{
				Vectors: vectors,
				Seed:    23,
				Workers: w,
			})
			if err != nil {
				t.Fatalf("vectors=%d workers=%d: %v", vectors, w, err)
			}
			if w == 1 {
				want = res
				continue
			}
			if res.MaxActivityCI != want.MaxActivityCI || res.Vectors != want.Vectors {
				t.Errorf("vectors=%d workers=%d: summary (%v, %d) diverged from sequential (%v, %d)",
					vectors, w, res.MaxActivityCI, res.Vectors, want.MaxActivityCI, want.Vectors)
			}
			for _, n := range order {
				if res.Estimates[n] != want.Estimates[n] {
					t.Errorf("vectors=%d workers=%d node %s: %+v != sequential %+v",
						vectors, w, n.Name, res.Estimates[n], want.Estimates[n])
				}
			}
		}
	}
}
