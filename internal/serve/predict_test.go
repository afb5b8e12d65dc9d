package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
)

// predictServer serves a default server with the given models
// registered on a test listener.
func predictServer(t *testing.T, models ...*core.Model) *httptest.Server {
	t.Helper()
	s := New(Options{})
	for _, m := range models {
		if err := s.Registry().Add(m.Name, m, ""); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// predictSingle posts one config and returns its prediction and the
// HTTP status. It reports failures with t.Error, never t.Fatal, so
// goroutines may call it; a transport or decoding failure returns
// status 0.
func predictSingle(t *testing.T, url, model string, cfg design.Config) (prediction, int) {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"config":%s}`, model, mustJSON(t, cluster.FromConfig(cfg)))
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return prediction{}, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return prediction{}, resp.StatusCode
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || len(pr.Predictions) != 1 {
		t.Errorf("decoding a single prediction: %v (%d predictions)", err, len(pr.Predictions))
		return prediction{}, 0
	}
	return pr.Predictions[0], resp.StatusCode
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoalescingBitIdentical: a single is a batch of one. For on-grid
// configs it must match the in-process model bit for bit, and equal the
// same config scored inside a 2-config batch (on a second server, so
// neither answer comes from the other's cache).
func TestCoalescingBitIdentical(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "co")
	singles := predictServer(t, m)
	batches := predictServer(t, m)

	for i, cfg := range m.Configs[:8] {
		want := m.PredictConfig(cfg)
		p, code := predictSingle(t, singles.URL, "co", cfg)
		if code != http.StatusOK {
			t.Fatalf("single status %d", code)
		}
		if p.Value != want {
			t.Fatalf("single value %x != in-process %x", p.Value, want)
		}
		body := fmt.Sprintf(`{"model":"co","configs":[%s,%s]}`,
			mustJSON(t, cluster.FromConfig(cfg)), mustJSON(t, cluster.FromConfig(m.Configs[8+i])))
		resp, raw := postJSON(t, batches.URL+"/v1/predict", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		var pr predictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Predictions[0] != p {
			t.Fatalf("single %+v != batched %+v", p, pr.Predictions[0])
		}
	}
}

// TestCoalesceStorm is the -race stress: concurrent singles and
// batches against one server, every response checked bit-for-bit
// against the in-process model.
func TestCoalesceStorm(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "storm-co")
	ts := predictServer(t, m)
	want := make([]float64, len(m.Configs))
	for i, cfg := range m.Configs {
		want[i] = m.PredictConfig(cfg)
	}
	const goroutines = 8
	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*iters + it) % len(m.Configs)
				if g%2 == 0 {
					p, code := predictSingle(t, ts.URL, "storm-co", m.Configs[i])
					if code != http.StatusOK || p.Value != want[i] {
						errs <- fmt.Sprintf("single[%d]: %x (status %d), want %x", i, p.Value, code, want[i])
					}
					continue
				}
				j := (i + 3) % len(m.Configs)
				body := fmt.Sprintf(`{"model":"storm-co","configs":[%s,%s]}`,
					mustJSON(t, cluster.FromConfig(m.Configs[i])), mustJSON(t, cluster.FromConfig(m.Configs[j])))
				resp, raw := postJSON(t, ts.URL+"/v1/predict", body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("batch status %d: %s", resp.StatusCode, raw)
					continue
				}
				var pr predictResponse
				if err := json.Unmarshal(raw, &pr); err != nil {
					errs <- err.Error()
					continue
				}
				if pr.Predictions[0].Value != want[i] || pr.Predictions[1].Value != want[j] {
					errs <- fmt.Sprintf("batch values %x/%x, want %x/%x",
						pr.Predictions[0].Value, pr.Predictions[1].Value, want[i], want[j])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBatchVectorizedBitIdentical: batches go through the compiled
// evaluator; every value must equal the scalar in-process
// prediction, and a repeat of the same batch must be served from cache.
func TestBatchVectorizedBitIdentical(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "vec")
	ts := predictServer(t, m)
	var sb strings.Builder
	sb.WriteString(`{"model":"vec","configs":[`)
	for i, cfg := range m.Configs {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.Write(mustJSON(t, cluster.FromConfig(cfg)))
	}
	sb.WriteString("]}")
	for round := 0; round < 2; round++ {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", sb.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		var pr predictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		for i, p := range pr.Predictions {
			if want := m.PredictConfig(m.Configs[i]); p.Value != want {
				t.Fatalf("round %d: batch[%d] = %x, want %x", round, i, p.Value, want)
			}
			if round == 1 && !p.Cached {
				t.Fatalf("round 1: batch[%d] missed the cache", i)
			}
		}
	}
}
