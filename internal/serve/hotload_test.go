package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/rbf"
)

// listedGeneration reads name's generation off GET /v1/models.
func listedGeneration(t *testing.T, url, name string) uint64 {
	t.Helper()
	_, body := getBody(t, url+"/v1/models")
	var listing struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("models listing: %v in %s", err, body)
	}
	for _, m := range listing.Models {
		if m.Name == name {
			return m.Generation
		}
	}
	t.Fatalf("models listing lacks %q: %s", name, body)
	return 0
}

// TestHotLoadClearsDrift: rebuilding a drifting model and hot-loading
// it is the remedy for drift, so the replacement starts on a clean
// drift window: /readyz answers 200 at once, not after the replaced
// model's samples age out of the 1h window.
func TestHotLoadClearsDrift(t *testing.T) {
	obs.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "drifty.json")
	saveModel(t, buildTestModel(t, "drifty"), path)
	s := New(Options{ModelDir: dir, ShadowFraction: 1, ShadowErrPct: 5, Clock: newFakeClock().now})
	if _, err := s.Registry().LoadDir(""); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	// Inject drift at the accounting layer, as TestShadowDriftTripsReadyz
	// does.
	st := s.shadow.stats("drifty")
	for i := 0; i < shadowMinSamples; i++ {
		st.hist.Observe(40)
	}
	if resp, body := getBody(t, hts.URL+"/readyz"); resp.StatusCode != 503 {
		t.Fatalf("after drift: readyz %d %s, want 503 model_drift", resp.StatusCode, body)
	}

	saveModel(t, buildTestModel(t, "drifty"), path)
	if resp, body := postJSON(t, hts.URL+"/v1/models/load", `{"path":"drifty.json"}`); resp.StatusCode != 200 {
		t.Fatalf("hot load = %d: %s", resp.StatusCode, body)
	}
	if resp, body := getBody(t, hts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("after the hot load: readyz %d %s, want 200", resp.StatusCode, body)
	}
	if gen := listedGeneration(t, hts.URL, "drifty"); gen != 2 {
		t.Fatalf("listed generation %d, want 2", gen)
	}
}

// TestHotLoadSwapStorm: a hot load replaces a model while four
// goroutines send batch predicts. Every response is wholly one
// generation — both values old or both new — and once a goroutine has
// seen the new generation it never sees the old one again (a stale
// cache hit would).
func TestHotLoadSwapStorm(t *testing.T) {
	obs.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "storm.json")
	old := buildTestModel(t, "storm")
	saveModel(t, old, path)
	s := New(Options{ModelDir: dir})
	if _, err := s.Registry().LoadDir(""); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	body, _ := json.Marshal(map[string]any{"model": "storm",
		"configs": []cluster.WireConfig{cluster.FromConfig(old.Configs[0]), cluster.FromConfig(old.Configs[1])}})
	// batch runs on the storm's goroutines too, so it reports failures
	// instead of calling t.Fatal.
	batch := func() ([2]float64, error) {
		resp, err := http.Post(hts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return [2]float64{}, err
		}
		defer resp.Body.Close()
		var pr predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != 200 || len(pr.Predictions) != 2 {
			return [2]float64{}, fmt.Errorf("predict = %d (%v): %+v", resp.StatusCode, err, pr)
		}
		return [2]float64{pr.Predictions[0].Value, pr.Predictions[1].Value}, nil
	}
	oldVals, err := batch()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	results := make([][][2]float64, 4)
	var counts [4]atomic.Int64
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := batch()
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], v)
				counts[g].Add(1)
			}
		}(g)
	}
	// waitEach blocks until every goroutine has answered n more batches
	// than it had on entry.
	waitEach := func(n int64) {
		var base [4]int64
		for g := range counts {
			base[g] = counts[g].Load()
		}
		deadline := time.Now().Add(10 * time.Second)
		for g := range counts {
			for counts[g].Load() < base[g]+n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}

	// The replacement fits twice the response, so every value moves.
	repl, err := core.BuildRBFModel(core.FuncEvaluator(func(c design.Config) float64 { return 2 * syntheticCPI(c) }), 40, core.Options{
		LHSCandidates: 16,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	repl.Name = "storm"
	saveModel(t, repl, path)
	waitEach(3)
	if resp, raw := postJSON(t, hts.URL+"/v1/models/load", `{"path":"storm.json"}`); resp.StatusCode != 200 {
		t.Fatalf("hot load = %d: %s", resp.StatusCode, raw)
	}
	waitEach(3)
	close(stop)
	wg.Wait()

	if gen := listedGeneration(t, hts.URL, "storm"); gen != 2 {
		t.Fatalf("listed generation %d, want 2", gen)
	}
	newVals, err := batch()
	if err != nil {
		t.Fatal(err)
	}
	if newVals == oldVals {
		t.Fatal("the replacement predicts identically to the old model; the storm's checks would be vacuous")
	}
	for g, seq := range results {
		sawNew := false
		for i, v := range seq {
			switch v {
			case oldVals:
				if sawNew {
					t.Fatalf("goroutine %d response %d went back to the old generation after seeing the new one (stale cache)", g, i)
				}
			case newVals:
				sawNew = true
			default:
				t.Fatalf("goroutine %d response %d = %v mixes generations (old %v, new %v)", g, i, v, oldVals, newVals)
			}
		}
		if !sawNew {
			t.Fatalf("goroutine %d never saw the new generation in %d responses", g, len(seq))
		}
	}
}
