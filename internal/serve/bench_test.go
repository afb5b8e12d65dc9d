package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/design"
)

// BenchmarkServePredict measures the server's own cost around one
// /v1/predict request: in-process through the full handler chain
// (edge, metrics layer, mux, handler) into an httptest recorder, with
// the shipped defaults, so no loopback hop or client is counted.
//
//   - single_hit: one single prediction the LRU already holds;
//   - single_miss: singles cycling through more distinct quantized
//     configs than the LRU holds (cacheSize), so each one is scored;
//   - batch64: 64-config batches cycling through the same configs.
func BenchmarkServePredict(b *testing.B) {
	m := buildTestModel(b, "bench")
	s := New(Options{})
	if err := s.Registry().Add("bench", m, ""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.coalesce.stop() })
	h := s.Handler()

	cfgs := distinctConfigs(m.Space, m.SampleSize, cacheSize+1024)
	if len(cfgs) <= cacheSize {
		b.Fatalf("only %d distinct configs, want more than %d", len(cfgs), cacheSize)
	}
	singles := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		singles[i] = []byte(fmt.Sprintf(`{"model":"bench","config":%s}`, mustJSON(b, cluster.FromConfig(c))))
	}
	var batches [][]byte
	for lo := 0; lo+64 <= len(cfgs); lo += 64 {
		wire := make([]cluster.WireConfig, 64)
		for i := range wire {
			wire[i] = cluster.FromConfig(cfgs[lo+i])
		}
		batches = append(batches, []byte(fmt.Sprintf(`{"model":"bench","configs":%s}`, mustJSON(b, wire))))
	}

	post := func(b *testing.B, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	run := func(name string, bodies [][]byte) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(b, bodies[i%len(bodies)])
			}
		})
	}
	post(b, singles[0])
	run("single_hit", singles[:1])
	run("single_miss", singles)
	run("batch64", batches)
}

// BenchmarkRouterPredict is BenchmarkServePredict's twin for the
// router: predrouter's handler in-process into an httptest recorder, in
// front of one predserve shard on loopback, so each request pays the
// router's edge, the proxy and one HTTP hop to the shard. The shard's
// cache holds every config, as in predict_routed's hot set.
//
//   - single: one single prediction;
//   - batch64: 64-config batches cycling through distinct configs;
//
// each with the router sampling every request (sampled, the default)
// and with tracing off (unsampled).
func BenchmarkRouterPredict(b *testing.B) {
	m := buildTestModel(b, "bench")
	s := New(Options{})
	if err := s.Registry().Add("bench", m, ""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.coalesce.stop() })
	shard := httptest.NewServer(s.Handler())
	b.Cleanup(shard.Close)

	cfgs := distinctConfigs(m.Space, m.SampleSize, 64*16)
	single := [][]byte{[]byte(fmt.Sprintf(`{"model":"bench","config":%s}`, mustJSON(b, cluster.FromConfig(cfgs[0]))))}
	var batches [][]byte
	for lo := 0; lo+64 <= len(cfgs); lo += 64 {
		wire := make([]cluster.WireConfig, 64)
		for i := range wire {
			wire[i] = cluster.FromConfig(cfgs[lo+i])
		}
		batches = append(batches, []byte(fmt.Sprintf(`{"model":"bench","configs":%s}`, mustJSON(b, wire))))
	}

	for _, mode := range []struct {
		name   string
		sample float64
	}{{"sampled", 1}, {"unsampled", -1}} {
		rt, err := cluster.NewRouter(cluster.RouterOptions{
			Shards: []string{shard.URL}, SyncInterval: -1, TraceSample: mode.sample,
		})
		if err != nil {
			b.Fatal(err)
		}
		h := rt.Handler()
		post := func(b *testing.B, body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		for _, body := range append(single, batches...) {
			post(b, body) // fill the shard's cache
		}
		for _, load := range []struct {
			name   string
			bodies [][]byte
		}{{"single", single}, {"batch64", batches}} {
			b.Run(load.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					post(b, load.bodies[i%len(load.bodies)])
				}
			})
		}
	}
}

// distinctConfigs decodes up to n distinct on-grid configurations of
// space, stepping pipeline depth, L2 latency and ROB size through their
// levels.
func distinctConfigs(space *design.Space, sampleSize, n int) []design.Config {
	dims := []int{space.Index(design.PipeDepth), space.Index(design.L2Lat), space.Index(design.ROBSize)}
	seen := map[design.Config]bool{}
	var out []design.Config
	for i := 0; len(out) < n; i++ {
		pt := make(design.Point, space.N())
		for d := range pt {
			pt[d] = 0.5
		}
		rest := i
		for _, d := range dims {
			levels := space.Params[d].LevelCount(sampleSize)
			pt[d] = float64(rest%levels) / float64(levels-1)
			rest /= levels
		}
		if rest > 0 {
			break // every combination taken
		}
		if c := space.Decode(pt, sampleSize); !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
