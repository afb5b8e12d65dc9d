package obs

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestWritePrometheusGolden registers one metric of every kind under a
// promtest. prefix with deterministic (power-of-two) values, renders the
// full exposition, and compares the promtest_ lines against the golden
// file. Filtering by prefix keeps the test independent of whatever other
// packages registered in the shared registry.
func TestWritePrometheusGolden(t *testing.T) {
	c := NewCounter("promtest.sims")
	c.v.Store(0)
	c.Add(42)

	cv := NewCounterVec("promtest.responses", "route", "code")
	cv.reset()
	cv.With("/v1/predict", "200").Add(3)
	cv.With("/v1/predict", "400").Inc()

	NewGauge("promtest.inflight").Set(2)
	NewGaugeFunc("promtest.cache_entries", func() float64 { return 5 })

	h := NewHistogram("promtest.latency_seconds", []float64{0.25, 1, 4})
	h.reset()
	for _, v := range []float64{0.125, 0.5, 2, 8} {
		h.Observe(v)
	}

	hv := NewHistogramVec("promtest.route_seconds", []float64{0.5, 2}, "route")
	hv.reset()
	hv.With("/a").Observe(0.25)
	hv.With("/a").Observe(1)
	hv.With("/b").Observe(4)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "promtest_") {
			got = append(got, line)
		}
	}
	want, err := os.ReadFile("testdata/prom.golden")
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got, "\n")+"\n", string(want); g != w {
		t.Errorf("prom exposition mismatch\n--- got ---\n%s--- want ---\n%s", g, w)
	}
}

// TestWritePrometheusSpans: span aggregates export as _calls_total /
// _seconds_total / _seconds_max series. Durations are wall-clock, so the
// values are matched structurally, not exactly.
func TestWritePrometheusSpans(t *testing.T) {
	Enable()
	defer Disable()
	for i := 0; i < 2; i++ {
		_, end := StartSpanCtx(context.Background(), "promtest.span")
		end()
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, re := range []string{
		`(?m)^# TYPE promtest_span_calls_total counter$`,
		`(?m)^promtest_span_calls_total 2$`,
		`(?m)^# TYPE promtest_span_seconds_total counter$`,
		`(?m)^promtest_span_seconds_total [0-9.e+-]+$`,
		`(?m)^# TYPE promtest_span_seconds_max gauge$`,
		`(?m)^promtest_span_seconds_max [0-9.e+-]+$`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("exposition missing %s", re)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.http_request_seconds": "serve_http_request_seconds",
		"core.sims":                  "core_sims",
		"9lives":                     "_lives",
		"a:b-c":                      "a:b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := escapeLabelValue("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabelValue = %q", got)
	}
}
