package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
)

// sloLimit is the latency limit of predict_lone's rate ladder, on the
// p99 from each request's due time. At 5 ms the 250 and 500 req/s steps
// flipped between passing and failing from run to run; at 10 ms they
// pass in every run, and the step that flips is 1000 req/s, where two
// connections at about 2 ms each run out of capacity.
const sloLimit = 10 * time.Millisecond

// rig is a served model: predserve on the saved model file, with
// predrouter in front when routed, and the in-process reference model
// loaded from the same file.
type rig struct {
	ref    *core.Model
	ev     *core.SimEvaluator // the build's evaluator, for validating ref
	shard  *role
	router *role // nil unless routed
	client *http.Client
}

func (r *rig) roles() []*role {
	if r.router != nil {
		return []*role{r.shard, r.router}
	}
	return []*role{r.shard}
}

// front is where the workload sends its traffic.
func (r *rig) front() string {
	if r.router != nil {
		return r.router.url
	}
	return r.shard.url
}

// setUpRig times the predict workloads' set-up: trace generation, the
// mcf model build and save, the roles up until ready, and warm-up
// requests (warm must all be answered). It returns the set-up times and
// the last rig, which the caller stops.
func setUpRig(e *env, routed bool, warm []design.Config) ([]float64, *rig, error) {
	genTrace, err := traceGenerator(e)
	if err != nil {
		return nil, nil, err
	}
	var last *rig
	var file string
	setups, err := repeatSetup(e, func() (func(), error) {
		genTrace()
		ev, err := core.NewSimEvaluator("mcf", e.sc.Insts)
		if err != nil {
			return nil, err
		}
		m, err := core.BuildRBFModel(ev, e.sc.ModelPoints, buildOptions(e, e.seed))
		if err != nil {
			return nil, err
		}
		m.Name = "mcf"
		dir, err := os.MkdirTemp(e.work, "models-")
		if err != nil {
			return nil, err
		}
		file = filepath.Join(dir, "mcf.json")
		if err := saveModel(m, file); err != nil {
			return nil, err
		}
		rg := &rig{ev: ev, client: newClient()}
		if rg.shard, err = startRole(e, "predserve", "/readyz", "-models", dir); err != nil {
			return nil, err
		}
		if routed {
			if rg.router, err = startRole(e, "predrouter", "/healthz", "-shards", rg.shard.url); err != nil {
				rg.shard.stop()
				return nil, err
			}
		}
		for _, c := range warm {
			status, _, err := post(rg.client, rg.front()+"/v1/predict", predictBody(c))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("warm-up predict answered %d", status)
			}
			if err != nil {
				stopAll(rg.roles())
				return nil, err
			}
		}
		last = rg
		return func() { stopAll(rg.roles()) }, nil
	})
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(file)
	if err != nil {
		stopAll(last.roles())
		return nil, nil, err
	}
	defer f.Close()
	if last.ref, err = core.LoadModel(f); err != nil {
		stopAll(last.roles())
		return nil, nil, err
	}
	return setups, last, nil
}

func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// distinctConfigs draws n on-grid configs of a model's space (quantized
// at its sample size), no two alike, so none is served from the
// prediction cache. Being on the grid, serving quantizes each to itself.
func distinctConfigs(rng *rand.Rand, space *design.Space, sampleSize, n int) []design.Config {
	seen := map[string]bool{}
	out := make([]design.Config, 0, n)
	pt := make(design.Point, space.N())
	for len(out) < n {
		for i := range pt {
			pt[i] = rng.Float64()
		}
		c := space.Decode(pt, sampleSize)
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func predictBody(c design.Config) []byte {
	raw, _ := json.Marshal(struct {
		Model  string             `json:"model"`
		Config cluster.WireConfig `json:"config"`
	}{"mcf", cluster.FromConfig(c)})
	return raw
}

func batchBody(cs []design.Config) []byte {
	wire := make([]cluster.WireConfig, len(cs))
	for i, c := range cs {
		wire[i] = cluster.FromConfig(c)
	}
	raw, _ := json.Marshal(struct {
		Model   string               `json:"model"`
		Configs []cluster.WireConfig `json:"configs"`
	}{"mcf", wire})
	return raw
}

// checkPredictions verifies a /v1/predict answer: one prediction per
// config, each echoing the config unchanged and carrying exactly the
// in-process model's value.
func checkPredictions(raw []byte, ref *core.Model, cs []design.Config) error {
	var resp struct {
		Predictions []struct {
			Config cluster.WireConfig `json:"config"`
			Value  float64            `json:"value"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if len(resp.Predictions) != len(cs) {
		return fmt.Errorf("%d predictions for %d configs", len(resp.Predictions), len(cs))
	}
	for i, p := range resp.Predictions {
		if p.Config != cluster.FromConfig(cs[i]) {
			return fmt.Errorf("config %d served as %+v", i, p.Config)
		}
		if want := ref.PredictConfig(cs[i]); math.Float64bits(p.Value) != math.Float64bits(want) {
			return fmt.Errorf("config %d: served %v, model %v", i, p.Value, want)
		}
	}
	return nil
}

// outcome is one request of the open loop.
type outcome struct {
	sent, ok  bool
	fromDue   time.Duration // completion − due time
	fromSend  time.Duration // completion − send time
	late      time.Duration // send − when the sender was first able to send
	wrongBody error
}

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // due, from the start of the loop
	step int
}

// ladderSteps is predict_lone's rate ladder: half the run at 250 req/s,
// then 500, 1000, 2000 and 4000 req/s for an eighth each.
func ladderSteps(d time.Duration) (rates []float64, ends []time.Duration) {
	rates = []float64{250, 500, 1000, 2000, 4000}
	t := d / 2
	ends = []time.Duration{t}
	for range rates[1:] {
		t += d / 8
		ends = append(ends, t)
	}
	return rates, ends
}

// poisson draws the due times of each step's Poisson arrivals.
func poisson(rng *rand.Rand, rates []float64, ends []time.Duration) []arrival {
	var out []arrival
	var begin time.Duration
	for s, rate := range rates {
		t := begin
		for {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= ends[s] {
				break
			}
			out = append(out, arrival{at: t, step: s})
		}
		begin = ends[s]
	}
	return out
}

// openLoop sends request i at its due time from two senders. A request
// still unsent when its step ends is skipped: it misses the step's
// latency limit without being attempted. Latency counts from the due
// time, so a stall is charged to every request it delays.
func openLoop(ctx context.Context, rg *rig, sched []arrival, ends []time.Duration, cfgs []design.Config) []outcome {
	out := make([]outcome, len(sched))
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if now.After(start.Add(ends[sched[i].step])) {
					continue
				}
				o := &out[i]
				o.sent = true
				o.late = now.Sub(due)
				if free.After(due) {
					o.late = now.Sub(free)
				}
				_, end := obs.StartSpanCtx(ctx, "client.predict")
				status, raw, err := post(rg.client, rg.front()+"/v1/predict", predictBody(cfgs[i]))
				done := time.Now()
				end()
				free = done
				o.fromDue, o.fromSend = done.Sub(due), done.Sub(now)
				o.ok = err == nil && status == http.StatusOK
				if o.ok {
					o.wrongBody = checkPredictions(raw, rg.ref, cfgs[i:i+1])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// ladderStats folds outcomes into per-step counts and returns the
// base step's latencies from due and from send, and its lateness.
func ladderStats(rates []float64, sched []arrival, outs []outcome) (steps []step, fromDue, fromSend, late []time.Duration, err error) {
	steps = make([]step, len(rates))
	for s := range steps {
		steps[s].Rate = rates[s]
	}
	for i, o := range outs {
		st := &steps[sched[i].step]
		st.Due++
		if !o.sent {
			continue
		}
		st.Sent++
		if o.wrongBody != nil {
			return nil, nil, nil, nil, fmt.Errorf("request %d: %w", i, o.wrongBody)
		}
		if !o.ok {
			st.Failed++
			continue
		}
		if o.fromDue > sloLimit {
			st.OverLimit++
		}
		if sched[i].step == 0 {
			fromDue = append(fromDue, o.fromDue)
			fromSend = append(fromSend, o.fromSend)
			late = append(late, o.late)
		}
	}
	return steps, fromDue, fromSend, late, nil
}

// p99ms returns the p99 in ms when ten samples lie beyond it.
func p99ms(ds []time.Duration) (float64, bool) {
	if !tailReportable(len(ds), 0.99) {
		return 0, false
	}
	xs := ms(ds)
	sort.Float64s(xs)
	return quantile(xs, 0.99), true
}

func runLone(e *env) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	rates, ends := ladderSteps(e.dur)
	if e.traced {
		rates, ends = ladderSteps(e.dur / 2)
	}
	sched := poisson(rng, rates, ends)
	// The traced pass repeats the base rate for half the run.
	tRates, tEnds := []float64{rates[0]}, []time.Duration{e.dur / 2}
	var tSched []arrival
	if e.traced {
		tSched = poisson(rng, tRates, tEnds)
	}
	// Every request of the run carries its own config, so none is
	// answered from the cache; warm-up takes 200 more.
	all := distinctConfigs(rng, design.PaperSpace(), e.sc.ModelPoints, len(sched)+len(tSched)+200)
	cfgs, tCfgs, warm := all[:len(sched)], all[len(sched):len(sched)+len(tSched)], all[len(sched)+len(tSched):]
	setups, rg, err := setUpRig(e, false, warm)
	if err != nil {
		return nil, err
	}
	defer stopAll(rg.roles())

	if err := rolesResetRSS(rg.roles()); err != nil {
		return nil, err
	}
	cpu0, err := rolesCPU(rg.roles())
	if err != nil {
		return nil, err
	}
	outs := openLoop(context.Background(), rg, sched, ends, cfgs)
	cpu1, err := rolesCPU(rg.roles())
	if err != nil {
		return nil, err
	}
	steps, fromDue, fromSend, late, err := ladderStats(rates, sched, outs)
	if err != nil {
		return nil, err
	}
	okCount := 0
	for _, st := range steps {
		res.attempted += st.Sent
		res.failed += st.Failed
		okCount += st.Sent - st.Failed
	}
	if len(fromDue) == 0 {
		return nil, fmt.Errorf("no request of the base step succeeded")
	}
	if !e.traced {
		rss, err := rolesRSS(rg.roles())
		if err != nil {
			return nil, err
		}
		res.e2e["setup_s"] = series{xs: setups}
		res.e2e["op_ms"] = series{xs: ms(fromDue)}
		res.e2e["items_per_s"] = series{xs: []float64{float64(okCount) / ends[len(ends)-1].Seconds()}}
		res.e2e["peak_rss_mb"] = series{xs: []float64{rss}}
		res.detail["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(max(okCount, 1))
		res.detail["max_rps_at_slo"] = maxRateAtSLO(steps)
		if v, ok := p99ms(fromDue); ok {
			res.detail["req_p99_ms"] = v
		}
		if v, ok := p99ms(late); ok {
			res.detail["gen.late_p99_ms"] = v
		}
		for _, st := range steps {
			res.detail["ladder."+strconv.Itoa(int(st.Rate))+".missed_pct"] = 100 * float64(st.OverLimit+st.Due-st.Sent+st.Failed) / float64(max(st.Due, 1))
		}
		res.detail["rbf.centers"] = float64(rg.ref.Fit.NumCenters())
		return res, nil
	}

	// Traced pass: the base rate again, each request a span, the shard's
	// metrics read before and after.
	before, err := scrapeAll(rg.client, rg.roles())
	if err != nil {
		return nil, err
	}
	tOuts := openLoop(obs.WithTrace(context.Background(), e.trace), rg, tSched, tEnds, tCfgs)
	after, err := scrapeAll(rg.client, rg.roles())
	if err != nil {
		return nil, err
	}
	tSteps, _, tFromSend, _, err := ladderStats(tRates, tSched, tOuts)
	if err != nil {
		return nil, err
	}
	res.attempted += tSteps[0].Sent
	res.failed += tSteps[0].Failed
	if len(tFromSend) == 0 {
		return nil, fmt.Errorf("no traced request succeeded")
	}
	T := meanMS(tFromSend)
	l := res.layers
	l["serve.server_pct"] = 100 * serverMeanMS(before, after) / T
	coalesceLayers(l, before, after)
	hc, hs, err := healthzProbe(rg.client, rg.shard, 200)
	if err != nil {
		return nil, err
	}
	l["net.transport_pct"] = 100 * (hc - hs) / T
	l["cluster.router_hop_pct"] = 0
	l["bench.unattributed_pct"] = 100 - l["serve.server_pct"] - l["net.transport_pct"]
	l["traced.op_mean_ms"] = T
	l["bench.trace_overhead_pct"] = 100 * (T/meanMS(fromSend) - 1)
	if err := modelLayers(e, rg, l); err != nil {
		return nil, err
	}
	zero(l, buildLayers, farmLayers)
	return res, nil
}

// serverMeanMS is the mean server-side time of a /v1/predict request
// between two scrapes of the roles.
func serverMeanMS(before, after []*obs.Report) float64 {
	cnt, sum := histDelta(before, after, `serve.http_request_seconds{route="/v1/predict"}`)
	return 1000 * ratio(sum, float64(cnt))
}

// coalesceLayers derives, between two scrapes of the roles, the share of
// coalescer flushes that waited out the window, the mean configs per
// flush, and the prediction cache's hit ratio.
func coalesceLayers(l map[string]float64, before, after []*obs.Report) {
	flush := func(reason string) float64 {
		return float64(counterDelta(before, after, `serve.coalesce_flushes{reason="`+reason+`"}`))
	}
	window := flush("window")
	l["serve.coalesce_window_flush_frac"] = ratio(window, window+flush("size")+flush("drain"))
	cnt, sum := histDelta(before, after, "serve.coalesce_batch_size")
	l["serve.coalesce_batch_mean"] = ratio(sum, float64(cnt))
	hits := float64(counterDelta(before, after, "serve.cache_hits"))
	misses := float64(counterDelta(before, after, "serve.cache_misses"))
	l["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
}

// modelLayers fills the layers of a served model: its validation error
// on the paper's random test set, its size, and the simulator probe on
// its training configs. Serving runs no simulations.
func modelLayers(e *env, rg *rig, l map[string]float64) error {
	ts := core.NewTestSetWorkers(rg.ev, nil, e.sc.TestPoints, e.seed+77, workers)
	l["model_mean_err_pct"] = rg.ref.Validate(ts).Mean
	l["rbf.centers"] = float64(rg.ref.Fit.NumCenters())
	l["sim.runs_per_op"] = 0
	l["sim.cycles_per_op"] = 0
	l["sim.parallel_efficiency"] = 0
	l["cluster.useful_sim_ratio"] = 0
	return simProbe(e, rg.ref.Configs, l)
}

// healthzProbe sends n sequential GET /healthz to a role and returns the
// client's mean round trip and the role's mean server-side time, in ms:
// their difference is the transport floor every request pays.
func healthzProbe(c *http.Client, r *role, n int) (client, server float64, err error) {
	before, err := scrape(c, r)
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		status, _, err := get(c, r.url+"/healthz")
		if err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK {
			return 0, 0, fmt.Errorf("%s /healthz answered %d", r.name, status)
		}
		total += time.Since(t0)
	}
	after, err := scrape(c, r)
	if err != nil {
		return 0, 0, err
	}
	name := `serve.http_request_seconds{route="/healthz"}`
	cnt := after.Histograms[name].Count - before.Histograms[name].Count
	sum := after.Histograms[name].Sum - before.Histograms[name].Sum
	return float64(total) / float64(time.Millisecond) / float64(n), 1000 * ratio(sum, float64(cnt)), nil
}
