package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// promNamespace prefixes every exported metric name, per Prometheus
// naming conventions.
const promNamespace = "powermap_"

// sanitizeMetricName maps a snapshot metric name (dotted) onto the
// Prometheus name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(promNamespace) + len(name))
	b.WriteString(promNamespace)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && b.Len() > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitSeriesKey splits a snapshot series key (name or name{k="v",...})
// into the metric name and the brace-enclosed label body ("" when
// unlabeled).
func splitSeriesKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// promSeries is one series of a family: its label body (without braces)
// and either a counter/gauge value or a histogram.
type promSeries struct {
	labels string
	value  string
	hist   *HistogramStats
}

// promFamily is one # TYPE block.
type promFamily struct {
	kind   string
	series []promSeries
}

func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges two label bodies, skipping empties.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// writePromLine writes one "series value" exposition line.
func writePromLine(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" " + value + "\n")
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Counters and gauges map directly. Every
// histogram — the pipeline's own and phase_seconds{phase=<span name>},
// which each span observes as it ends — exports as a Prometheus histogram:
// cumulative _bucket lines in increasing le over the shared bucket
// layout, ending with +Inf, then _sum and _count. Metric names are
// prefixed with "powermap_" and sanitized to the Prometheus charset;
// families and series print in sorted order, so the output is
// deterministic for a given snapshot.
func (sn *Snapshot) WritePrometheus(w io.Writer) error {
	families := make(map[string]*promFamily)
	add := func(key, kind string, s promSeries) {
		name, labels := splitSeriesKey(key)
		name = sanitizeMetricName(name)
		f, ok := families[name]
		if !ok {
			f = &promFamily{kind: kind}
			families[name] = f
		}
		s.labels = labels
		f.series = append(f.series, s)
	}
	for key, v := range sn.Counters {
		add(key, "counter", promSeries{value: strconv.FormatInt(v, 10)})
	}
	for key, v := range sn.Gauges {
		add(key, "gauge", promSeries{value: formatPromValue(v)})
	}
	if sn.SpansDropped > 0 {
		add("spans_dropped", "gauge", promSeries{value: strconv.FormatInt(sn.SpansDropped, 10)})
	}
	for key, st := range sn.Histograms {
		add(key, "histogram", promSeries{hist: &st})
	}

	var b strings.Builder
	for _, name := range sortedKeys(families) {
		f := families[name]
		b.WriteString("# TYPE " + name + " " + f.kind + "\n")
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			if s.hist == nil {
				writePromLine(&b, name, s.labels, s.value)
				continue
			}
			var cum uint64
			for i, le := range bucketBounds {
				if i < len(s.hist.Buckets) {
					cum += s.hist.Buckets[i]
				}
				writePromLine(&b, name+"_bucket", joinLabels(s.labels, `le="`+formatPromValue(le)+`"`), strconv.FormatUint(cum, 10))
			}
			writePromLine(&b, name+"_sum", s.labels, formatPromValue(s.hist.Sum))
			writePromLine(&b, name+"_count", s.labels, strconv.FormatInt(s.hist.Count, 10))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus writes a scope snapshot in the Prometheus text
// exposition format; see Snapshot.WritePrometheus. Safe on a nil scope.
func WritePrometheus(w io.Writer, s *Scope) error {
	return s.Snapshot().WritePrometheus(w)
}
