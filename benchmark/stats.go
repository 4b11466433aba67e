package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// above it, so a tail is never a single outlier.
const minBeyond = 10

// quantile returns the Harrell-Davis estimate of the q-quantile of xs
// (0 < q < 1): a weighted mean of the order statistics with Beta weights
// centred on rank q(n+1). A plain order statistic jumps when two runs of
// the fixed suite job mix swap places around the rank; this estimate moves
// smoothly. It refuses a percentile with fewer than minBeyond samples
// beyond its nearest rank.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := max(1, rankOf(q, n))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", 100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cdf := betaInc(float64(i+1)/float64(n), a, b)
		est += (cdf - prev) * x
		prev = cdf
	}
	return est, nil
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of betaInc by Lentz's method.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// tailQuantile is the highest of the usual percentiles up to p90 that n
// samples support with minBeyond samples beyond it. A workload's sample
// count is fixed by its design, so its tail percentile is too. The ladder
// stops at p90: on a shared 2-CPU host the p95 of a millisecond request
// moved by a quarter to a third between identical runs, and the p99 by
// more, too much for any bound.
func tailQuantile(n int) (float64, error) {
	for _, q := range []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5} {
		if n-rankOf(q, n) >= minBeyond {
			return q, nil
		}
	}
	return 0, fmt.Errorf("%d samples support no percentile from p50 up", n)
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples,
// immune to q*n landing a rounding error above a whole number.
func rankOf(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median is the middle sample (the mean of the two middle ones for an
// even count), without the tail rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of positive samples, so every sample
// weighs the same in relative terms.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hitFrac is hits ÷ (hits + misses), or 0 when there was no lookup.
func hitFrac(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// latencyMetrics fills the three latency metrics from per-operation
// samples in milliseconds.
func latencyMetrics(values map[string]float64, ms []float64) error {
	q, err := tailQuantile(len(ms))
	if err != nil {
		return err
	}
	tail, err := quantile(ms, q)
	if err != nil {
		return err
	}
	p50, err := quantile(ms, 0.5)
	if err != nil {
		return err
	}
	values["latency_ms_p50"] = p50
	values["latency_ms_geomean"] = geomean(ms)
	values["latency_ms_tail"] = tail
	fmt.Fprintf(os.Stderr, "latency over %d samples: tail is p%g\n", len(ms), 100*q)
	return nil
}

// windowStats is one window of a serve run: its latencies in milliseconds,
// the responses that met the latency limit, and its wall time.
type windowStats struct {
	ms   []float64
	good int
	wall time.Duration
}

// windowMetrics fills the latency and throughput metrics from windows of
// identical work: each metric is the median over the windows of its value
// in each window, so a slow spell of the host that covers fewer than half
// the windows moves none of them.
func windowMetrics(values map[string]float64, windows []windowStats) error {
	q, err := tailQuantile(len(windows[0].ms))
	if err != nil {
		return err
	}
	var p50, geo, tail, rate []float64
	for _, w := range windows {
		m, err := quantile(w.ms, 0.5)
		if err != nil {
			return err
		}
		t, err := quantile(w.ms, q)
		if err != nil {
			return err
		}
		p50, geo, tail = append(p50, m), append(geo, geomean(w.ms)), append(tail, t)
		rate = append(rate, float64(w.good)/w.wall.Seconds())
	}
	values["latency_ms_p50"] = median(p50)
	values["latency_ms_geomean"] = median(geo)
	values["latency_ms_tail"] = median(tail)
	values["throughput_per_s"] = median(rate)
	fmt.Fprintf(os.Stderr, "latency over %d windows of %d requests: tail is p%g\n", len(windows), len(windows[0].ms), 100*q)
	return nil
}
