package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReport feeds arbitrary bytes through ReadReport, the parser for a
// scraped /metricz body (cmd/bench reads every role's report with it).
// Nothing may panic, and every report ReadReport accepts must encode
// as JSON again.
func FuzzReport(f *testing.F) {
	h := NewHistogram("fuzztest.seconds", DefLatencyBuckets)
	for _, v := range []float64{1.0 / 8192, 1.0 / 256, 0.25, 1024} {
		h.Observe(v)
	}
	seeded, err := json.Marshal(&Report{Format: reportFormat,
		Counters:   map[string]int64{"fed.requests_total": h.Count()},
		Gauges:     map[string]float64{"fed.inflight": 2},
		Stages:     map[string]StageStats{"stage.x": {Count: 2, TotalSec: 0.5, MaxSec: 0.4}},
		Histograms: map[string]HistStats{"fed.request_seconds": histStats(h)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seeded)
	for _, seed := range []string{
		// Reports of three roles.
		`{"format":3,"counters":{"fleettest.requests":100,"serve.requests_total":100},"gauges":{"obs.trace_sample_rate":0.25},` +
			`"histograms":{"fleettest.seconds":{"count":4,"sum":1,"p50":0.25,"bounds":[0.25,0.5],"buckets":[3,1,0]}}}`,
		`{"format":3,"counters":{"fleettest.requests":50},"histograms":{"fleettest.seconds":{"count":2,"sum":0.9,"p50":0.5,"bounds":[0.25,0.5],"buckets":[1,0,1]}}}`,
		`{"format":3,"counters":{"cluster.worker_eval_requests":7,"cluster.worker_errors":1}}`,
		// A pre-format-3 histogram, with quantiles and no layout.
		`{"format":2,"histograms":{"x_seconds":{"count":10,"sum":1,"p50":0.001,"p99":0.01,"max":0.01}}}`,
		`{"format":1,"host":{"cpus":4},"started":"2026-01-01T00:00:00Z","wall_sec":1,"stages":{},"counters":{"x":3}}`,
		// Histogram layouts no Histogram could have written.
		`{"format":3,"histograms":{"x.bad_seconds":{"count":5,"buckets":[5]}}}`,
		`{"format":3,"histograms":{"serve.request_seconds":{"count":5,"bounds":[1],"buckets":[0,0,5]}}}`,
		`{"format":3,"histograms":{"x.bad_seconds":{"count":5,"sum":1,"bounds":[-1e308,1e308],"buckets":[0,5,0]}}}`,
		// Values at the edge of float64.
		`{"format":3,"gauges":{"g":1e308},"stages":{"s":{"count":1,"total_sec":1e308}},` +
			`"histograms":{"x_seconds":{"count":1,"sum":1.7e308,"bounds":[1e308],"buckets":[0,1]}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rep, err := ReadReport(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
	})
}
