package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"predperf/internal/obs"
)

// ---- ring ----

func TestRingLookupStable(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mcf", "gcc", "synthetic", "x"} {
		p1, s1 := r.Lookup(key)
		p2, s2 := r.Lookup(key)
		if p1 != p2 || s1 != s2 {
			t.Fatalf("Lookup(%q) unstable: (%s,%s) then (%s,%s)", key, p1, s1, p2, s2)
		}
		if p1 == s1 {
			t.Fatalf("Lookup(%q): secondary equals primary with 3 shards", key)
		}
	}
	// Shard order must not matter.
	r2, _ := NewRing([]string{"c", "a", "b"}, 0)
	for _, key := range []string{"mcf", "gcc", "synthetic"} {
		p1, _ := r.Lookup(key)
		p2, _ := r2.Lookup(key)
		if p1 != p2 {
			t.Fatalf("Lookup(%q) depends on shard order: %s vs %s", key, p1, p2)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r, err := NewRing([]string{"only"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, s := r.Lookup("anything")
	if p != "only" || s != "only" {
		t.Fatalf("Lookup = (%s, %s), want (only, only)", p, s)
	}
}

func TestRingBalanceAndRelocation(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	r, _ := NewRing(shards, 0)
	const keys = 3000
	count := map[string]int{}
	place := map[string]string{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("model-%d", i)
		p, _ := r.Lookup(k)
		count[p]++
		place[k] = p
	}
	for _, s := range shards {
		if frac := float64(count[s]) / keys; frac < 0.15 {
			t.Fatalf("shard %s owns %.1f%% of keys; the ring is badly unbalanced", s, frac*100)
		}
	}
	// Adding a fourth shard must relocate roughly 1/4 of keys, not all.
	r4, _ := NewRing(append(shards, "s4"), 0)
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("model-%d", i)
		if p, _ := r4.Lookup(k); p != place[k] {
			moved++
		}
	}
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Fatalf("adding one shard moved %.1f%% of keys; consistent hashing should move ~25%%", frac*100)
	}
}

func TestRingRejectsBadShards(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty shard identifier accepted")
	}
}

// ---- Retry-After ----

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{61 * time.Second, "61"},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%s) = %q, want %q", c.d, got, c.want)
		}
	}
}

// ---- pool health: eviction and readmission ----

// evalOK answers a fixed single-value EvalResponse.
func evalOK(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"values":[1.25],"sims":1}`)
}

func TestPoolEvictionAndReadmission(t *testing.T) {
	var broken atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		evalOK(w, r)
	}))
	defer flaky.Close()
	steady := httptest.NewServer(http.HandlerFunc(evalOK))
	defer steady.Close()

	p, err := NewPool([]string{flaky.URL, steady.URL}, PoolOptions{
		EvictAfter:   2,
		ReadmitAfter: 30 * time.Millisecond,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}

	broken.Store(true)
	// Enough requests that round-robin lands on the flaky worker at
	// least EvictAfter times; every request must still succeed via the
	// steady worker after retries.
	for i := 0; i < 6; i++ {
		if _, _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatalf("request %d failed despite a healthy worker: %v", i, err)
		}
	}
	evicted := func() *WorkerStatus {
		for _, ws := range p.Snapshot() {
			if ws.URL == flaky.URL {
				return &ws
			}
		}
		return nil
	}
	if ws := evicted(); ws == nil || !ws.Evicted {
		t.Fatalf("flaky worker not evicted after repeated failures: %+v", ws)
	}

	// Heal the worker; after the rest period a live request probes and
	// readmits it.
	broken.Store(false)
	time.Sleep(40 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatalf("post-heal request failed: %v", err)
		}
		if ws := evicted(); ws != nil && !ws.Evicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed worker never readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoolPermanentErrorNoRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":{"code":"bad_request","message":"no"}}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	p, err := NewPool([]string{srv.URL}, PoolOptions{MaxAttempts: 5, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}
	if _, _, err := p.EvalChunk(context.Background(), req); err == nil {
		t.Fatal("4xx answered no error")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("4xx retried: %d attempts, want 1", n)
	}
	// A 4xx indicts the request, not the worker: no eviction.
	if ws := p.Snapshot()[0]; ws.Evicted {
		t.Fatal("worker evicted on a permanent client error")
	}
}

// TestPoolNoDuplicateRequests: one chunk is one request to one worker,
// even when a worker turns slow after a warm history.
func TestPoolNoDuplicateRequests(t *testing.T) {
	var slow atomic.Bool
	var hits atomic.Int64
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if slow.Load() {
			time.Sleep(300 * time.Millisecond)
		}
		evalOK(w, r)
	}))
	defer slowSrv.Close()
	fastSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		evalOK(w, r)
	}))
	defer fastSrv.Close()

	p, err := NewPool([]string{slowSrv.URL, fastSrv.URL}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}
	for i := 0; i < 32; i++ {
		if _, _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	slow.Store(true)
	hits.Store(0)

	tr := obs.NewTrace("no-duplicate-test")
	ctx := obs.WithTrace(context.Background(), tr)
	for i := 0; i < 4; i++ {
		if _, _, err := p.EvalChunk(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := hits.Load(); n != 4 {
		t.Fatalf("4 chunks sent %d requests, want 4", n)
	}
	attempts := 0
	for _, s := range tr.Spans() {
		if s.Name == "cluster.pool_attempt" {
			attempts++
		}
	}
	if attempts != 4 {
		t.Fatalf("4 chunks recorded %d cluster.pool_attempt spans, want 4", attempts)
	}
}

// TestPoolShortAnswerEvicts: a worker that answers 200 with the wrong
// number of values is failing, not succeeding. Its answers never reach
// the caller, and it is evicted like any other failing worker.
func TestPoolShortAnswerEvicts(t *testing.T) {
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"values":[],"sims":0}`)
	}))
	defer short.Close()
	good := httptest.NewServer(http.HandlerFunc(evalOK))
	defer good.Close()

	p, err := NewPool([]string{short.URL, good.URL}, PoolOptions{
		EvictAfter:  2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}
	for i := 0; i < 6; i++ {
		vals, _, err := p.EvalChunk(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d failed despite a healthy worker: %v", i, err)
		}
		if len(vals) != 1 || vals[0] != 1.25 {
			t.Fatalf("request %d answered %v, want [1.25]", i, vals)
		}
	}
	for _, ws := range p.Snapshot() {
		if ws.URL != short.URL {
			continue
		}
		if !ws.Evicted || ws.OK != 0 {
			t.Fatalf("short-answering worker: evicted=%v requests_ok=%d, want evicted with 0 ok", ws.Evicted, ws.OK)
		}
	}
}

// TestPoolCancelInFlight: cancelling the caller's context aborts an
// attempt stuck on a worker that never answers. The call returns
// context.Canceled long before RequestTimeout, frees the worker's
// in-flight slot, and does not count against the worker's health.
func TestPoolCancelInFlight(t *testing.T) {
	arrived, done := make(chan struct{}, 1), make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-done:
		}
	}))
	defer stuck.Close()
	defer close(done)

	p, err := NewPool([]string{stuck.URL}, PoolOptions{RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		cancel()
	}()
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}
	start := time.Now()
	_, _, err = p.EvalChunk(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chunk returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled chunk took %s to return", d)
	}
	ws := p.Snapshot()[0]
	if ws.Inflight != 0 {
		t.Fatalf("cancelled attempt still holds %d in-flight slots", ws.Inflight)
	}
	if ws.Errors != 0 || ws.Fails != 0 {
		t.Fatalf("caller cancellation counted against the worker: %+v", ws)
	}
}

// ---- wire config round trip ----

func TestWireConfigRoundTrip(t *testing.T) {
	for _, wc := range []WireConfig{
		{12, 96, 48, 48, 2048, 10, 32, 32, 2},
		{8, 64, 32, 16, 1024, 8, 16, 64, 3},
	} {
		if got := FromConfig(wc.Config()); got != wc {
			t.Fatalf("round trip changed the config: %+v -> %+v", wc, got)
		}
		if err := wc.Validate(); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	}
	bad := WireConfig{12, 0, 48, 48, 2048, 10, 32, 32, 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ROB accepted")
	}
}
