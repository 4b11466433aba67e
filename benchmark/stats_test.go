package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestQuantileHarrellDavis(t *testing.T) {
	// On evenly spaced samples 1..n the estimate of the q-quantile is
	// qn + 1/2: the mean rank under the Beta weights.
	for _, tc := range []struct {
		n int
		q float64
	}{{20, 0.5}, {21, 0.5}, {100, 0.9}, {3000, 0.95}} {
		got, err := quantile(ramp(tc.n), tc.q)
		if want := tc.q*float64(tc.n) + 0.5; err != nil || math.Abs(got-want) > 1e-6*want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", 100*tc.q, tc.n, got, err, want)
		}
	}
	// Two clusters split at the median: a nearest-rank median would jump
	// from 1 to 2 when one sample crosses over; the estimate moves a little.
	split := make([]float64, 40)
	for i := range split {
		split[i] = 1 + float64(i/20)
	}
	a, _ := quantile(split, 0.5)
	split[19] = 2
	b, _ := quantile(split, 0.5)
	if b-a > 0.3 {
		t.Errorf("median moved %v when one of 40 samples crossed the gap", b-a)
	}
}

func TestBetaInc(t *testing.T) {
	for _, tc := range []struct{ x, a, b, want float64 }{
		{0.5, 1, 1, 0.5}, {0.3, 2, 1, 0.09}, {0.3, 1, 2, 0.51}, {0.5, 50.5, 50.5, 0.5},
	} {
		if got := betaInc(tc.x, tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{{99, 0.9}, {19, 0.5}, {999, 0.99}, {0, 0.5}} {
		if v, err := quantile(ramp(tc.n), tc.q); err == nil {
			t.Errorf("p%g of %d samples = %v, want a refusal (fewer than %d beyond)", 100*tc.q, tc.n, v, minBeyond)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{20: 0.5, 40: 0.75, 51: 0.8, 64: 0.8, 100: 0.9, 1538: 0.9} {
		if got, err := tailQuantile(n); err != nil || got != want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v", n, got, err, want)
		}
	}
	if q, err := tailQuantile(19); err == nil {
		t.Errorf("tailQuantile(19) = %v, want an error", q)
	}
}

// TestWindowMetrics checks that a window slowed by the host moves no
// metric when most windows are steady.
func TestWindowMetrics(t *testing.T) {
	steady := windowStats{ms: ramp(100), good: 100, wall: time.Second}
	slow := windowStats{ms: make([]float64, 100), good: 50, wall: 4 * time.Second}
	for i := range slow.ms {
		slow.ms[i] = 1000
	}
	values := map[string]float64{}
	if err := windowMetrics(values, []windowStats{steady, slow, steady}); err != nil {
		t.Fatal(err)
	}
	p90, _ := quantile(ramp(100), 0.9)
	for name, want := range map[string]float64{
		"latency_ms_p50": 50.5, "latency_ms_geomean": geomean(ramp(100)),
		"latency_ms_tail": p90, "throughput_per_s": 100,
	} {
		if got := values[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{1, 4, 16}, 4}, {[]float64{2, 8}, 4}, {[]float64{7}, 7}} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := geomean(nil); !math.IsNaN(got) {
		t.Errorf("geomean(nil) = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 samples = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 samples = %v, want 2.5", got)
	}
}
