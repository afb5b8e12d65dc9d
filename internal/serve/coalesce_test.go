package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
)

// coalescingServer builds a server with coalescing on and the given
// model registered, returning the server and its test listener.
func coalescingServer(t *testing.T, opt Options, models ...*core.Model) (*Server, *httptest.Server) {
	t.Helper()
	if opt.CoalesceWindow == 0 {
		opt.CoalesceWindow = 2 * time.Millisecond
	}
	s := New(opt)
	for _, m := range models {
		if err := s.Registry().Add(m.Name, m, ""); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.coalesce.stop()
	})
	return s, ts
}

func predictSingle(t *testing.T, url, model string, cfg design.Config) (prediction, int) {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"config":%s}`, model, string(mustJSON(t, cluster.FromConfig(cfg))))
	resp, raw := postJSON(t, url+"/v1/predict", body)
	if resp.StatusCode != http.StatusOK {
		return prediction{}, resp.StatusCode
	}
	var pr predictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("got %d predictions for a single config", len(pr.Predictions))
	}
	return pr.Predictions[0], resp.StatusCode
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoalescingBitIdentical: for on-grid configs, responses with
// coalescing on must match both the in-process model and a server with
// coalescing off, bit for bit.
func TestCoalescingBitIdentical(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "co")
	_, on := coalescingServer(t, Options{CoalesceWindow: time.Millisecond}, m)
	soff := New(Options{})
	if err := soff.Registry().Add(m.Name, m, ""); err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(soff.Handler())
	defer off.Close()

	for _, cfg := range m.Configs[:8] {
		want := m.PredictConfig(cfg)
		pOn, _ := predictSingle(t, on.URL, "co", cfg)
		pOff, _ := predictSingle(t, off.URL, "co", cfg)
		if pOn.Value != want {
			t.Fatalf("coalesced value %x != in-process %x", pOn.Value, want)
		}
		if pOn.Value != pOff.Value {
			t.Fatalf("coalesced value %x != uncoalesced %x", pOn.Value, pOff.Value)
		}
	}
}

// TestCoalesceWindowFlush: a lone request, far below coalesceMax, can
// only complete via the window timer, and the flush is tagged "window".
func TestCoalesceWindowFlush(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "win")
	_, ts := coalescingServer(t, Options{CoalesceWindow: 2 * time.Millisecond}, m)
	start := time.Now()
	if p, code := predictSingle(t, ts.URL, "win", m.Configs[0]); code != http.StatusOK || p.Value == 0 {
		t.Fatalf("predict = %+v (status %d)", p, code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("window flush took %s", elapsed)
	}
	if n := cCoalesceFlushes.With("window").Value(); n < 1 {
		t.Fatalf("window flushes = %d, want >= 1", n)
	}
	if n := cCoalesced.Value(); n < 1 {
		t.Fatalf("coalesced_requests = %d, want >= 1", n)
	}
	if hCoalesceBatch.Count() < 1 {
		t.Fatal("coalesce_batch_size histogram recorded nothing")
	}
}

// TestCoalesceMaxSizeFlush: with a window far longer than the test,
// requests can only complete via the size trigger; fire exactly one
// batch worth (coalesceMax) concurrently and require a "size" flush.
func TestCoalesceMaxSizeFlush(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "sz")
	_, ts := coalescingServer(t, Options{CoalesceWindow: 30 * time.Second}, m)
	var wg sync.WaitGroup
	errs := make(chan string, coalesceMax)
	for i := 0; i < coalesceMax; i++ {
		cfg := m.Configs[i%len(m.Configs)]
		wg.Add(1)
		go func(cfg design.Config, want float64) {
			defer wg.Done()
			p, code := predictSingle(t, ts.URL, "sz", cfg)
			if code != http.StatusOK || p.Value != want {
				errs <- fmt.Sprintf("value %x (status %d), want %x", p.Value, code, want)
			}
		}(cfg, m.PredictConfig(cfg))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := cCoalesceFlushes.With("size").Value(); n < 1 {
		t.Fatalf("size flushes = %d, want >= 1 (window flushes: %d)",
			n, cCoalesceFlushes.With("window").Value())
	}
}

// TestCoalescePerModelIsolation: one flush containing several models
// must route every result to the model that was asked for.
func TestCoalescePerModelIsolation(t *testing.T) {
	obs.Reset()
	ma := buildTestModel(t, "iso-a")
	mb := buildTestModel(t, "iso-b")
	// Perturb mb so its predictions genuinely differ from ma's.
	for i := range mb.Fit.Net.Weights {
		mb.Fit.Net.Weights[i] *= 1.5
	}
	_, ts := coalescingServer(t, Options{CoalesceWindow: 20 * time.Millisecond}, ma, mb)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		model, ref := "iso-a", ma
		if i%2 == 1 {
			model, ref = "iso-b", mb
		}
		cfg := ref.Configs[i]
		want := ref.PredictConfig(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, code := predictSingle(t, ts.URL, model, cfg)
			if code != http.StatusOK || p.Value != want {
				errs <- fmt.Sprintf("%s: value %x (status %d), want %x", model, p.Value, code, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCoalesceCancellationMidQueue: a request whose client gives up
// while queued returns promptly, the dispatcher skips its work, and
// the server keeps answering.
func TestCoalesceCancellationMidQueue(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "cancel")
	_, ts := coalescingServer(t, Options{CoalesceWindow: 300 * time.Millisecond}, m)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	body := fmt.Sprintf(`{"model":"cancel","config":%s}`, mustJSON(t, cluster.FromConfig(m.Configs[0])))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("canceled request got status %d, want client-side timeout", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("canceled request returned after %s, not promptly", elapsed)
	}
	// The dispatcher flushes the batch at the 300ms window and must
	// count the dead request instead of evaluating it.
	deadline := time.Now().Add(5 * time.Second)
	for cCoalesceCanceled.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coalesce_canceled never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the server still answers.
	if p, code := predictSingle(t, ts.URL, "cancel", m.Configs[1]); code != http.StatusOK || p.Value != m.PredictConfig(m.Configs[1]) {
		t.Fatalf("post-cancel predict = %+v (status %d)", p, code)
	}
}

// TestCoalesceQueueFull: a full admission queue fails fast with
// ErrCoalesceQueueFull at the coalescer and a structured 503 at the
// HTTP surface, instead of blocking toward the request deadline.
func TestCoalesceQueueFull(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "full")

	// Unit level: block the dispatcher inside eval so the queue (cap 1)
	// genuinely backs up.
	release := make(chan struct{})
	entry := &Entry{Name: "full", Model: m}
	blockingEval := func(e *Entry, cfgs []design.Config) []prediction {
		<-release
		preds := make([]prediction, len(cfgs))
		for i, cfg := range cfgs {
			preds[i] = prediction{Config: cluster.FromConfig(cfg), Value: e.Model.PredictConfig(cfg)}
		}
		return preds
	}
	c := newCoalescer(time.Millisecond, 1, 1, blockingEval)
	defer func() { close(release); c.stop() }()

	// First request: picked up by the dispatcher, stuck in eval.
	first := make(chan error, 1)
	go func() {
		_, err := c.predict(context.Background(), entry, m.Configs[0])
		first <- err
	}()
	// Wait until the dispatcher has it (queue empty again).
	deadline := time.Now().Add(5 * time.Second)
	for len(c.queue) != 0 || cCoalesceFlushes.With("size").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never picked up the first request")
		}
		time.Sleep(time.Millisecond)
	}
	// Second request parks in the queue; third must be refused.
	second := make(chan error, 1)
	go func() {
		_, err := c.predict(context.Background(), entry, m.Configs[1])
		second <- err
	}()
	for len(c.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.predict(context.Background(), entry, m.Configs[2]); err != ErrCoalesceQueueFull {
		t.Fatalf("third predict err = %v, want ErrCoalesceQueueFull", err)
	}
	release <- struct{}{}
	release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("first predict err = %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second predict err = %v", err)
	}

	// HTTP level: swap in a blocked coalescer and require the 503 shape.
	s, ts := coalescingServer(t, Options{}, m)
	release2 := make(chan struct{})
	s.coalesce.stop()
	s.coalesce = newCoalescer(time.Millisecond, 1, 1, func(e *Entry, cfgs []design.Config) []prediction {
		<-release2
		return s.predictBatch(e, cfgs)
	})
	// Unblock eval before stopping, or stop would wait forever on a
	// dispatcher parked inside it.
	defer func() { close(release2); s.coalesce.stop() }()
	// Two background singles: the first occupies the dispatcher inside
	// the blocked eval, the second fills the queue (capacity 1). Same
	// package, same process — so wait for each state transition before
	// moving on, making the final probe deterministic.
	flushed := cCoalesceFlushes.With("size").Value()
	post := func(i int) {
		body := fmt.Sprintf(`{"model":"full","config":%s}`, mustJSON(t, cluster.FromConfig(m.Configs[i])))
		go func() {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	deadline = time.Now().Add(5 * time.Second)
	post(0)
	for cCoalesceFlushes.With("size").Value() == flushed {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never entered eval for the first HTTP request")
		}
		time.Sleep(time.Millisecond)
	}
	post(1)
	for len(s.coalesce.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second HTTP request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict",
		fmt.Sprintf(`{"model":"full","config":%s}`, mustJSON(t, cluster.FromConfig(m.Configs[2]))))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with a full queue, want 503 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "coalesce_queue_full") {
		t.Fatalf("503 body = %s, want code coalesce_queue_full", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carried no Retry-After header")
	}
}

// TestCoalesceStorm is the -race stress: a mixture of coalesced
// singles and direct batches against one server, every response
// checked bit-for-bit against the in-process model.
func TestCoalesceStorm(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "storm-co")
	_, ts := coalescingServer(t, Options{CoalesceWindow: time.Millisecond}, m)
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

// TestBatchVectorizedBitIdentical: explicit batches go through the
// compiled evaluator; every value must equal the scalar in-process
// prediction, and a repeat of the same batch must be served from cache.
func TestBatchVectorizedBitIdentical(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "vec")
	s := New(Options{})
	if err := s.Registry().Add(m.Name, m, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
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

// TestCoalescePredictAfterStop pins the shutdown straggler behavior on
// the coalescer side: a handler arriving after stop() gets a structured
// ErrCoalesceStopped — never a panic, never a hang.
func TestCoalescePredictAfterStop(t *testing.T) {
	m := buildTestModel(t, "after-stop")
	e := &Entry{Name: "after-stop", Model: m}
	c := newCoalescer(time.Millisecond, 4, 16, func(e *Entry, cfgs []design.Config) []prediction {
		out := make([]prediction, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = prediction{Value: e.Model.PredictConfig(cfg)}
		}
		return out
	})
	if p, err := c.predict(context.Background(), e, m.Configs[0]); err != nil || p.Value != m.PredictConfig(m.Configs[0]) {
		t.Fatalf("pre-stop predict = %+v, %v", p, err)
	}
	c.stop()
	if _, err := c.predict(context.Background(), e, m.Configs[0]); err != ErrCoalesceStopped {
		t.Fatalf("predict after stop returned %v, want ErrCoalesceStopped", err)
	}
}
