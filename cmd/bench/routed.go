package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"predperf/internal/design"
	"predperf/internal/obs"
)

// batchSize and batchShare shape predict_routed's mix: one request in
// ten is a 64-config batch.
const (
	batchSize  = 64
	batchShare = 0.1
)

// loopStats is what the closed loop measured.
type loopStats struct {
	singles, batches  []time.Duration
	requests, configs int
	failed            int
}

// closedLoop runs two clients for d, each sending its next request as
// soon as the previous one is answered. Configs are drawn Zipf from the
// hot set, so most are answered from the prediction cache.
func closedLoop(ctx context.Context, rg *rig, hot []design.Config, d time.Duration, seed int64) (*loopStats, error) {
	parts := make([]loopStats, workers)
	errs := make([]error, workers)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(g)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
			st := &parts[g]
			for time.Now().Before(deadline) {
				n := 1
				if rng.Float64() < batchShare {
					n = batchSize
				}
				cs := make([]design.Config, n)
				for i := range cs {
					cs[i] = hot[zipf.Uint64()]
				}
				body := predictBody(cs[0])
				if n > 1 {
					body = batchBody(cs)
				}
				_, end := obs.StartSpanCtx(ctx, "client.predict", "configs", fmt.Sprint(n))
				t0 := time.Now()
				status, raw, err := post(rg.client, rg.front()+"/v1/predict", body)
				took := time.Since(t0)
				end()
				st.requests++
				if err != nil || status != http.StatusOK {
					st.failed++
					continue
				}
				if err := checkPredictions(raw, rg.ref, cs); err != nil {
					errs[g] = err
					return
				}
				st.configs += n
				if n == 1 {
					st.singles = append(st.singles, took)
				} else {
					st.batches = append(st.batches, took)
				}
			}
		}(g)
	}
	wg.Wait()
	out := &loopStats{}
	for g, p := range parts {
		if errs[g] != nil {
			return nil, errs[g]
		}
		out.singles = append(out.singles, p.singles...)
		out.batches = append(out.batches, p.batches...)
		out.requests += p.requests
		out.configs += p.configs
		out.failed += p.failed
	}
	if len(out.singles) == 0 {
		return nil, fmt.Errorf("no single prediction succeeded")
	}
	return out, nil
}

// pairProbe sends each of n hot configs straight to the shard and then
// through the router, and checks the two answers are byte for byte the
// same. It returns the latencies of both.
func pairProbe(ctx context.Context, rg *rig, hot []design.Config, n int) (direct, routed []time.Duration, err error) {
	send := func(name, url string, body []byte) ([]byte, time.Duration, error) {
		_, end := obs.StartSpanCtx(ctx, name)
		t0 := time.Now()
		status, raw, err := post(rg.client, url+"/v1/predict", body)
		took := time.Since(t0)
		end()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s answered %d", url, status)
		}
		return raw, took, err
	}
	for i := 0; i < n; i++ {
		body := predictBody(hot[i%len(hot)])
		d, dt, err := send("probe.direct", rg.shard.url, body)
		if err != nil {
			return nil, nil, err
		}
		r, rt, err := send("probe.routed", rg.router.url, body)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(d, r) {
			return nil, nil, fmt.Errorf("routed body differs from the shard's:\n%s\n%s", r, d)
		}
		direct, routed = append(direct, dt), append(routed, rt)
	}
	return direct, routed, nil
}

func runRouted(e *env) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	// One shard only: the ring hashes the shards' random ports, so with
	// two the model's owner would change from run to run.
	hot := distinctConfigs(rng, design.PaperSpace(), e.sc.ModelPoints, e.sc.HotSet)
	setups, rg, err := setUpRig(e, true, hot) // warm-up fills the cache with the hot set
	if err != nil {
		return nil, err
	}
	defer stopAll(rg.roles())
	measure := e.dur
	if e.traced {
		measure = e.dur / 2
	}
	if err := rolesResetRSS(rg.roles()); err != nil {
		return nil, err
	}
	cpu0, err := rolesCPU(rg.roles())
	if err != nil {
		return nil, err
	}
	un, err := closedLoop(context.Background(), rg, hot, measure, e.seed)
	if err != nil {
		return nil, err
	}
	cpu1, err := rolesCPU(rg.roles())
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = un.requests, un.failed

	if !e.traced {
		direct, routed, err := pairProbe(context.Background(), rg, hot, 64)
		if err != nil {
			return nil, err
		}
		rss, err := rolesRSS(rg.roles())
		if err != nil {
			return nil, err
		}
		res.e2e["setup_s"] = series{xs: setups}
		res.e2e["op_ms"] = series{xs: ms(un.singles)}
		res.e2e["items_per_s"] = series{xs: []float64{float64(un.configs) / measure.Seconds()}}
		res.e2e["peak_rss_mb"] = series{xs: []float64{rss}}
		res.detail["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(un.requests)
		if v, ok := p99ms(un.singles); ok {
			res.detail["req_p99_ms"] = v
		}
		if len(un.batches) > 0 {
			res.detail["routed.batch64_p50_ms"] = median(ms(un.batches))
		}
		res.detail["cluster.router_hop_us"] = 1000 * (median(ms(routed)) - median(ms(direct)))
		res.detail["rbf.centers"] = float64(rg.ref.Fit.NumCenters())
		return res, nil
	}

	ctx := obs.WithTrace(context.Background(), e.trace)
	before, err := scrapeAll(rg.client, rg.roles())
	if err != nil {
		return nil, err
	}
	tr, err := closedLoop(ctx, rg, hot, measure, e.seed+1)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(rg.client, rg.roles())
	if err != nil {
		return nil, err
	}
	res.attempted += tr.requests
	res.failed += tr.failed
	l := res.layers
	coalesceLayers(l, before, after)

	// The request breakdown: a lone single through the router, against
	// the same single sent straight to the shard.
	before, err = scrapeAll(rg.client, rg.roles())
	if err != nil {
		return nil, err
	}
	direct, routed, err := pairProbe(ctx, rg, hot, 400)
	if err != nil {
		return nil, err
	}
	after, err = scrapeAll(rg.client, rg.roles())
	if err != nil {
		return nil, err
	}
	res.attempted += 2 * len(direct)
	hc, hs, err := healthzProbe(rg.client, rg.shard, 200)
	if err != nil {
		return nil, err
	}
	T := meanMS(routed)
	l["cluster.router_hop_pct"] = 100 * (T - meanMS(direct)) / T
	l["serve.server_pct"] = 100 * serverMeanMS(before, after) / T
	l["net.transport_pct"] = 100 * (hc - hs) / T
	l["bench.unattributed_pct"] = 100 - l["cluster.router_hop_pct"] - l["serve.server_pct"] - l["net.transport_pct"]
	l["traced.op_mean_ms"] = T
	l["bench.trace_overhead_pct"] = 100 * (meanMS(tr.singles)/meanMS(un.singles) - 1)
	if err := modelLayers(e, rg, l); err != nil {
		return nil, err
	}
	zero(l, buildLayers, farmLayers)
	return res, nil
}
