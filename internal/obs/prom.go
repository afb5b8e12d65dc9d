package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (version 0.0.4) for every registered
// metric, so /metricz?format=prom is scrapeable by any standard
// collector.
//
// Naming scheme: the registered dotted name with every character outside
// [a-zA-Z0-9_:] replaced by '_' — "serve.http_request_seconds" becomes
// "serve_http_request_seconds". Counters keep their name as-is,
// histograms expand into the conventional _bucket{le=...}/_sum/_count
// series, and every span aggregate <name> is exported as
// <name>_calls_total, <name>_seconds_total, and <name>_seconds_max.

// PromContentType is the Content-Type of the exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a registered metric name for Prometheus.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set (optionally with an extra trailing
// label, used for histogram "le") as {k="v",...}, or "" when empty.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered counter, gauge, histogram,
// and span aggregate in the Prometheus text exposition format. Metrics
// appear in registration order (labeled children in creation order
// inside their family), spans last, sorted by name.
func WritePrometheus(w io.Writer) error {
	registry.mu.Lock()
	order := make([]any, len(registry.order))
	copy(order, registry.order)
	spanNames := make([]string, 0, len(registry.spans))
	for name := range registry.spans {
		spanNames = append(spanNames, name)
	}
	spans := make(map[string]*spanStats, len(registry.spans))
	for name, s := range registry.spans {
		spans[name] = s
	}
	registry.mu.Unlock()

	var b strings.Builder
	for _, m := range order {
		switch m := m.(type) {
		case *Counter:
			writePromCounter(&b, promName(m.name), []*Counter{m})
		case *CounterVec:
			writePromCounter(&b, promName(m.name), m.snapshot())
		case *Gauge:
			name := promName(m.name)
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, m.Value())
		case *GaugeFunc:
			name := promName(m.name)
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(m.Value()))
		case *Histogram:
			writePromHistogram(&b, promName(m.name), []*Histogram{m})
		case *HistogramVec:
			writePromHistogram(&b, promName(m.name), m.snapshot())
		}
	}

	sort.Strings(spanNames)
	for _, name := range spanNames {
		s := spans[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s_calls_total counter\n%s_calls_total %d\n",
			pn, pn, s.count.Load())
		fmt.Fprintf(&b, "# TYPE %s_seconds_total counter\n%s_seconds_total %s\n",
			pn, pn, promFloat(time.Duration(s.totalNs.Load()).Seconds()))
		fmt.Fprintf(&b, "# TYPE %s_seconds_max gauge\n%s_seconds_max %s\n",
			pn, pn, promFloat(time.Duration(s.maxNs.Load()).Seconds()))
	}

	writePromWindows(&b)
	writePromSLOs(&b)

	_, err := io.WriteString(w, b.String())
	return err
}

// writePromWindows exports every registered sliding-window view as
// gauges carrying a "window" label: counters get <name>_rate, histograms
// get <name>_window_count/_window_rate/_window_p50/_window_p90/
// _window_p99 (quantiles omitted for empty windows). The _window_ infix
// keeps the series disjoint from the histogram's own cumulative
// _bucket/_sum/_count family.
func writePromWindows(b *strings.Builder) {
	for _, v := range windowViews() {
		switch w := v.(type) {
		case *WindowedCounter:
			name := promName(w.name)
			fmt.Fprintf(b, "# TYPE %s_rate gauge\n", name)
			for _, d := range DefWindows {
				fmt.Fprintf(b, "%s_rate%s %s\n", name,
					promLabels(w.labels, Label{Key: "window", Value: WindowLabel(d)}),
					promFloat(w.RateOver(d)))
			}
		case *WindowedHistogram:
			name := promName(w.name)
			type row struct {
				label Label
				st    WindowStats
			}
			rows := make([]row, 0, len(DefWindows))
			for _, d := range DefWindows {
				rows = append(rows, row{Label{Key: "window", Value: WindowLabel(d)}, w.StatsOver(d)})
			}
			fmt.Fprintf(b, "# TYPE %s_window_count gauge\n", name)
			for _, r := range rows {
				fmt.Fprintf(b, "%s_window_count%s %d\n", name, promLabels(w.labels, r.label), r.st.Count)
			}
			fmt.Fprintf(b, "# TYPE %s_window_rate gauge\n", name)
			for _, r := range rows {
				fmt.Fprintf(b, "%s_window_rate%s %s\n", name, promLabels(w.labels, r.label), promFloat(r.st.Rate))
			}
			for _, q := range []struct {
				suffix string
				get    func(WindowStats) float64
			}{
				{"p50", func(s WindowStats) float64 { return s.P50 }},
				{"p90", func(s WindowStats) float64 { return s.P90 }},
				{"p99", func(s WindowStats) float64 { return s.P99 }},
			} {
				fmt.Fprintf(b, "# TYPE %s_window_%s gauge\n", name, q.suffix)
				for _, r := range rows {
					if r.st.Count == 0 {
						continue
					}
					fmt.Fprintf(b, "%s_window_%s%s %s\n", name, q.suffix,
						promLabels(w.labels, r.label), promFloat(q.get(r.st)))
				}
			}
		}
	}
}

// writePromSLOs exports every registered SLO's burn rates and firing
// state as gauges labeled by SLO name (and window, for burn rates).
func writePromSLOs(b *strings.Builder) {
	states := SLOStates()
	if len(states) == 0 {
		return
	}
	fmt.Fprintf(b, "# TYPE slo_burn_rate gauge\n")
	for _, st := range states {
		for _, bw := range []BurnWindow{st.Fast, st.Slow} {
			fmt.Fprintf(b, "slo_burn_rate%s %s\n",
				promLabels([]Label{{Key: "slo", Value: st.Name}, {Key: "window", Value: bw.Window}}),
				promFloat(bw.BurnRate))
		}
	}
	fmt.Fprintf(b, "# TYPE slo_firing gauge\n")
	for _, st := range states {
		v := 0
		if st.Firing {
			v = 1
		}
		fmt.Fprintf(b, "slo_firing%s %d\n",
			promLabels([]Label{{Key: "slo", Value: st.Name}}), v)
	}
}

func writePromCounter(b *strings.Builder, name string, children []*Counter) {
	fmt.Fprintf(b, "# TYPE %s counter\n", name)
	for _, c := range children {
		fmt.Fprintf(b, "%s%s %d\n", name, promLabels(c.labels), c.Value())
	}
}

func writePromHistogram(b *strings.Builder, name string, children []*Histogram) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	for _, h := range children {
		counts := h.bucketCounts()
		var cum int64
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = promFloat(h.bounds[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d", name, promLabels(h.labels, Label{Key: "le", Value: le}), cum)
			// OpenMetrics exemplar: link the bucket to a recent trace.
			// Plain-text scrapers treat "#" as a comment and ignore it.
			if ex := h.exemplarAt(i); ex != nil {
				fmt.Fprintf(b, " # {trace_id=\"%s\"} %s %s",
					escapeLabelValue(ex.traceID), promFloat(ex.value),
					strconv.FormatFloat(float64(ex.unixNano/1e6)/1e3, 'f', 3, 64))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(b, "%s_sum%s %s\n", name, promLabels(h.labels), promFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", name, promLabels(h.labels), cum)
	}
}
