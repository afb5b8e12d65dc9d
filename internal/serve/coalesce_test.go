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

// coalescingServer builds a default server with the given models
// registered, returning the server and its test listener.
func coalescingServer(t *testing.T, models ...*core.Model) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{})
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

// holdDispatcher swaps s's coalescer for one of the same shape whose
// first flush blocks inside eval until release is called, so later
// singles queue up behind it as they do behind any slow flush. Every
// flush evaluates through s.predictBatch; sizes reports how many
// configs each evaluation carried, in order.
func holdDispatcher(t *testing.T, s *Server) (release func(), sizes func() []int) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []int
	s.coalesce.stop()
	s.coalesce = newCoalescer(coalesceMax, coalesceQueue, func(e *Entry, cfgs []design.Config) []prediction {
		mu.Lock()
		got = append(got, len(cfgs))
		first := len(got) == 1
		mu.Unlock()
		if first {
			<-gate
		}
		return s.predictBatch(e, cfgs)
	})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	// Cleanups run last-in first-out: the gate opens before the server's
	// cleanup stops the coalescer, which waits for the dispatcher.
	t.Cleanup(release)
	sizes = func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
	return release, sizes
}

// waitUntil polls cond for up to 5 s and fails the test with what if
// it never holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
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

// TestCoalescingBitIdentical: for on-grid configs, a coalesced single
// must match the in-process model bit for bit, and equal the same
// config scored inside a direct 2-config batch (on a second server, so
// neither answer comes from the other's cache).
func TestCoalescingBitIdentical(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "co")
	_, singles := coalescingServer(t, m)
	_, batches := coalescingServer(t, m)

	for i, cfg := range m.Configs[:8] {
		want := m.PredictConfig(cfg)
		p, code := predictSingle(t, singles.URL, "co", cfg)
		if code != http.StatusOK {
			t.Fatalf("single status %d", code)
		}
		if p.Value != want {
			t.Fatalf("coalesced value %x != in-process %x", p.Value, want)
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
			t.Fatalf("coalesced single %+v != batched %+v", p, pr.Predictions[0])
		}
	}
}

// TestCoalesceIdleFlush: a lone request, far below coalesceMax, is
// flushed as soon as the dispatcher finds the queue empty: one "idle"
// flush of one config, counted, with no timer to wait out.
func TestCoalesceIdleFlush(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "idle")
	_, ts := coalescingServer(t, m)
	if p, code := predictSingle(t, ts.URL, "idle", m.Configs[0]); code != http.StatusOK || p.Value != m.PredictConfig(m.Configs[0]) {
		t.Fatalf("predict = %+v (status %d)", p, code)
	}
	if n := cCoalesceFlushes.With("idle").Value(); n != 1 {
		t.Fatalf("idle flushes = %d, want 1", n)
	}
	if n := cCoalesceFlushes.With("size").Value(); n != 0 {
		t.Fatalf("size flushes = %d, want 0", n)
	}
	if n := cCoalesced.Value(); n != 1 {
		t.Fatalf("coalesced_requests = %d, want 1", n)
	}
	if n, sum := hCoalesceBatch.Count(), hCoalesceBatch.Sum(); n != 1 || sum != 1 {
		t.Fatalf("coalesce_batch_size count %d sum %v, want one flush of 1", n, sum)
	}
}

// TestCoalesceMaxSizeFlush pins self-clocked batching: with the
// dispatcher held inside one flush, coalesceMax+3 singles queue behind
// it; once it returns they leave as one full "size" batch and then one
// "idle" batch of the 3 left over, every value bit-equal to the
// in-process model.
func TestCoalesceMaxSizeFlush(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "sz")
	s, ts := coalescingServer(t, m)
	release, sizes := holdDispatcher(t, s)
	var wg sync.WaitGroup
	errs := make(chan string, coalesceMax+4)
	fire := func(cfg design.Config) {
		want := m.PredictConfig(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, code := predictSingle(t, ts.URL, "sz", cfg)
			if code != http.StatusOK || p.Value != want {
				errs <- fmt.Sprintf("value %x (status %d), want %x", p.Value, code, want)
			}
		}()
	}
	fire(m.Configs[0])
	waitUntil(t, "the dispatcher to hold the first single", func() bool { return len(sizes()) == 1 })
	for i := 1; i <= coalesceMax+3; i++ {
		fire(m.Configs[i%len(m.Configs)])
	}
	waitUntil(t, "the singles to queue", func() bool { return len(s.coalesce.queue) == coalesceMax+3 })
	release()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, want := fmt.Sprint(sizes()), fmt.Sprint([]int{1, coalesceMax, 3}); got != want {
		t.Fatalf("flush sizes %s, want %s", got, want)
	}
	if idle, size := cCoalesceFlushes.With("idle").Value(), cCoalesceFlushes.With("size").Value(); idle != 2 || size != 1 {
		t.Fatalf("flushes: idle %d size %d, want 2 and 1", idle, size)
	}
	if n := cCoalesced.Value(); n != coalesceMax+4 {
		t.Fatalf("coalesced_requests = %d, want %d", n, coalesceMax+4)
	}
}

// TestCoalescePerModelIsolation: one flush containing several models
// must route every result to the model that was asked for. The eight
// mixed singles queue behind a held flush, so they share the next one.
func TestCoalescePerModelIsolation(t *testing.T) {
	obs.Reset()
	ma := buildTestModel(t, "iso-a")
	mb := buildTestModel(t, "iso-b")
	// Perturb mb so its predictions genuinely differ from ma's.
	for i := range mb.Fit.Net.Weights {
		mb.Fit.Net.Weights[i] *= 1.5
	}
	s, ts := coalescingServer(t, ma, mb)
	release, sizes := holdDispatcher(t, s)
	var wg sync.WaitGroup
	errs := make(chan string, 9)
	fire := func(model string, ref *core.Model, cfg design.Config) {
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
	fire("iso-a", ma, ma.Configs[9])
	waitUntil(t, "the dispatcher to hold the first single", func() bool { return len(sizes()) == 1 })
	for i := 0; i < 8; i++ {
		model, ref := "iso-a", ma
		if i%2 == 1 {
			model, ref = "iso-b", mb
		}
		fire(model, ref, ref.Configs[i])
	}
	waitUntil(t, "the singles to queue", func() bool { return len(s.coalesce.queue) == 8 })
	release()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// One evaluation for the held single, then one per model.
	if got, want := fmt.Sprint(sizes()), "[1 4 4]"; got != want {
		t.Fatalf("evaluation sizes %s, want %s", got, want)
	}
}

// TestCoalesceCancellationMidQueue: a request whose client gives up
// while it waits behind a flush returns promptly, the dispatcher skips
// its work and counts it, and the server keeps answering.
func TestCoalesceCancellationMidQueue(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "cancel")
	s, ts := coalescingServer(t, m)
	release, sizes := holdDispatcher(t, s)
	held := make(chan struct{})
	go func() {
		defer close(held)
		if p, code := predictSingle(t, ts.URL, "cancel", m.Configs[0]); code != http.StatusOK || p.Value != m.PredictConfig(m.Configs[0]) {
			t.Errorf("held predict = %+v (status %d)", p, code)
		}
	}()
	waitUntil(t, "the dispatcher to hold the first single", func() bool { return len(sizes()) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	body := fmt.Sprintf(`{"model":"cancel","config":%s}`, mustJSON(t, cluster.FromConfig(m.Configs[1])))
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
	// The server answers 503 once it sees the client go, which cancels
	// the request's context; only then may the held flush return, so
	// the dispatcher finds the dead request in the queue.
	waitUntil(t, "the canceled request to queue and be answered", func() bool {
		return len(s.coalesce.queue) == 1 && cResponses.With("/v1/predict", "503").Value() == 1
	})
	release()
	<-held
	waitUntil(t, "coalesce_canceled to count the dead request", func() bool { return cCoalesceCanceled.Value() == 1 })
	// And the server still answers.
	if p, code := predictSingle(t, ts.URL, "cancel", m.Configs[2]); code != http.StatusOK || p.Value != m.PredictConfig(m.Configs[2]) {
		t.Fatalf("post-cancel predict = %+v (status %d)", p, code)
	}
	if got, want := fmt.Sprint(sizes()), "[1 1]"; got != want {
		t.Fatalf("evaluated flush sizes %s, want %s (the canceled request skipped)", got, want)
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
	c := newCoalescer(1, 1, blockingEval)
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
	s, ts := coalescingServer(t, m)
	release2 := make(chan struct{})
	s.coalesce.stop()
	s.coalesce = newCoalescer(1, 1, func(e *Entry, cfgs []design.Config) []prediction {
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
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", got)
	}
}

// TestCoalesceStorm is the -race stress: a mixture of coalesced
// singles and direct batches against one server, every response
// checked bit-for-bit against the in-process model.
func TestCoalesceStorm(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "storm-co")
	_, ts := coalescingServer(t, m)
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
	c := newCoalescer(4, 16, func(e *Entry, cfgs []design.Config) []prediction {
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
