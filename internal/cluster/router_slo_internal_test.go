package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predperf/internal/obs"
)

// fakeShard answers every request by its mode: "ok" is a 200 JSON
// body, "500" an internal error, "slow" a 200 after 300 ms, and "dead"
// drops the connection unanswered, the transport error a dead shard
// gives.
type fakeShard struct {
	mode atomic.Pointer[string]
	ts   *httptest.Server
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{}
	f.set("ok")
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch *f.mode.Load() {
		case "dead":
			panic(http.ErrAbortHandler)
		case "500":
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		case "slow":
			time.Sleep(300 * time.Millisecond)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"model":"m","values":[1.5]}`))
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeShard) set(mode string) { f.mode.Store(&mode) }

// fakeClock is a clock the test steps; handlers may read it meanwhile.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

// advance steps the clock and rotates every window to it, as the
// rotation ticker of a serving process does.
func (c *fakeClock) advance(d time.Duration) {
	c.ns.Add(int64(d))
	obs.TickWindows()
}

// sloRouter is a router over shards whose SLO windows run on clock, and
// a server in front of it.
func sloRouter(t *testing.T, clock *fakeClock, shards ...*fakeShard) (*Router, *httptest.Server) {
	t.Helper()
	opt := RouterOptions{}
	for _, s := range shards {
		opt.Shards = append(opt.Shards, s.ts.URL)
	}
	rt, err := newRouter(opt, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// predicts sends n routed predicts for model m, at most 20 at a time,
// and fails the test unless each answers want.
func predicts(t *testing.T, base string, n, want int) {
	t.Helper()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 20)
	codes := make([]int, n)
	for i := range codes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(`{"model":"m","config":{}}`))
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != want {
			t.Fatalf("routed predict %d of %d = %d, want %d", i+1, n, code, want)
		}
	}
}

// sloState evaluates the router's SLO of that name.
func sloState(t *testing.T, rt *Router, name string) obs.SLOState {
	t.Helper()
	for _, slo := range rt.slo.SLOs() {
		if slo.Name == name {
			return slo.State()
		}
	}
	t.Fatalf("the router declares no SLO %q", name)
	return obs.SLOState{}
}

// TestRouterAvailabilityFiresOnDeadShard: a router over one shard
// serves five quiet minutes of good predicts, then the shard dies. Every
// routed predict answers the router's own 503 no_shard, which the shard
// never sees, and router-availability fires. Once the shard is back, it
// clears as good traffic takes the burst's place in the 5m window.
func TestRouterAvailabilityFiresOnDeadShard(t *testing.T) {
	clock := newFakeClock()
	shard := newFakeShard(t)
	rt, ts := sloRouter(t, clock, shard)

	for i := 0; i < 5; i++ {
		predicts(t, ts.URL, 20, http.StatusOK)
		clock.advance(time.Minute)
	}
	if st := sloState(t, rt, "router-availability"); st.Firing || st.Fast.Total != 100 {
		t.Fatalf("after five quiet minutes: %+v, want not firing over 100 requests", st)
	}

	shard.set("dead")
	predicts(t, ts.URL, 400, http.StatusServiceUnavailable)
	st := sloState(t, rt, "router-availability")
	if !st.Firing || st.Fast.Total-st.Fast.Good != 400 {
		t.Fatalf("after 400 routed 503s: %+v, want firing with 400 bad requests", st)
	}

	shard.set("ok")
	for i := 0; i < 6; i++ {
		clock.advance(time.Minute)
		predicts(t, ts.URL, 20, http.StatusOK)
	}
	st = sloState(t, rt, "router-availability")
	if st.Firing || st.Fast.Total == 0 || st.Fast.Good != st.Fast.Total {
		t.Fatalf("after six good minutes: %+v, want cleared over good traffic only", st)
	}
}

// TestRouterFailoverCountsAsGood: with the primary answering 500, the
// secondary serves every predict, so each is one good request and
// router-availability stays quiet.
func TestRouterFailoverCountsAsGood(t *testing.T) {
	clock := newFakeClock()
	a, b := newFakeShard(t), newFakeShard(t)
	rt, ts := sloRouter(t, clock, a, b)
	primary, secondary := rt.ring.Lookup("m")
	if primary == secondary {
		t.Fatal("two shards gave one placement")
	}
	for _, s := range []*fakeShard{a, b} {
		if s.ts.URL == primary {
			s.set("500")
		}
	}
	before := cRouterFailovers.Value()
	predicts(t, ts.URL, 50, http.StatusOK)
	if got := cRouterFailovers.Value() - before; got != 50 {
		t.Fatalf("failovers = %d, want 50", got)
	}
	st := sloState(t, rt, "router-availability")
	if st.Firing || st.Fast.Total != 50 || st.Fast.Good != 50 {
		t.Fatalf("after 50 failed-over predicts: %+v, want 50 good of 50", st)
	}
}

// TestRouterLatencyFiresOnSlowShard: a shard that answers after 300 ms
// blows the 250 ms objective on every request the router relays, so
// router-latency fires while router-availability does not.
func TestRouterLatencyFiresOnSlowShard(t *testing.T) {
	clock := newFakeClock()
	shard := newFakeShard(t)
	rt, ts := sloRouter(t, clock, shard)
	shard.set("slow")
	predicts(t, ts.URL, 4, http.StatusOK)
	if st := sloState(t, rt, "router-latency"); !st.Firing || st.Fast.Total != 4 || st.Fast.Good != 0 {
		t.Fatalf("after 4 slow predicts: %+v, want firing with 4 slow of 4", st)
	}
	if st := sloState(t, rt, "router-availability"); st.Firing {
		t.Fatalf("availability fired on slow 200s: %+v", st)
	}
}
