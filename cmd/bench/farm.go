package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/sample"
	"predperf/internal/sim"
	"predperf/internal/trace"
)

// farmChunk is the configs per /v1/eval request, as cluster.Pool's
// BatchChunk would split a batch.
const farmChunk = 8

// farmConfigs draws pass p's fresh LHS configs, one set per benchmark.
// Pass −1 is the warm-up, from a stream the measured passes never use.
func farmConfigs(e *env, p, n int) [][]design.Config {
	space := design.PaperSpace()
	out := make([][]design.Config, len(benchmarks))
	for b := range benchmarks {
		rng := rand.New(rand.NewSource(e.seed<<24 ^ int64(p+1)<<8 ^ int64(b)))
		for _, pt := range sample.LHS(space, n, rng) {
			out[b] = append(out[b], space.Decode(pt, n))
		}
	}
	return out
}

// farmPass is one pass's inputs and what the farm answered.
type farmPass struct {
	cfgs   [][]design.Config // per benchmark
	values [][]float64       // per benchmark, NaN where the chunk failed
	chunks []time.Duration   // client-side latency of each request
	failed int               // requests that failed after the pool's retries
}

// runPass sends one pass through the pool from two goroutines, the
// chunks of the four benchmarks interleaved so both workers see the mix.
// In the traced pass each request gets a span; the pool is called
// without the trace so only the benchmark's own spans are recorded.
func runPass(ctx context.Context, e *env, pool *cluster.Pool, cfgs [][]design.Config) *farmPass {
	fp := &farmPass{cfgs: cfgs, values: make([][]float64, len(cfgs))}
	type chunk struct{ b, lo int }
	var chunks []chunk
	for lo := 0; lo < len(cfgs[0]); lo += farmChunk {
		for b := range cfgs {
			chunks = append(chunks, chunk{b, lo})
		}
	}
	for b := range cfgs {
		fp.values[b] = make([]float64, len(cfgs[b]))
	}
	lat := make([]time.Duration, len(chunks))
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(chunks) {
					return
				}
				c := chunks[i]
				part := cfgs[c.b][c.lo:min(c.lo+farmChunk, len(cfgs[c.b]))]
				req := cluster.EvalRequest{Benchmark: benchmarks[c.b], TraceLen: e.sc.Insts}
				for _, cfg := range part {
					req.Configs = append(req.Configs, cluster.FromConfig(cfg))
				}
				_, end := obs.StartSpanCtx(ctx, "cluster.eval_chunk", "benchmark", req.Benchmark)
				t0 := time.Now()
				vals, _, err := pool.EvalChunk(context.Background(), req)
				lat[i] = time.Since(t0)
				end()
				if err != nil {
					failed.Add(1)
					vals = make([]float64, len(part))
					for j := range vals {
						vals[j] = math.NaN()
					}
				}
				copy(fp.values[c.b][c.lo:], vals)
			}
		}()
	}
	wg.Wait()
	fp.chunks = lat
	fp.failed = int(failed.Load())
	return fp
}

// checkFarm is the gate: every value the farm answered equals in-process
// sim.Run CPI bit for bit. It returns the simulated cycles of each pass
// and the in-process simulation time of each pass.
func checkFarm(e *env, ps []*farmPass) (cycles []uint64, local []time.Duration, err error) {
	cycles = make([]uint64, len(ps))
	local = make([]time.Duration, len(ps))
	for pi, p := range ps {
		for b, cfgs := range p.cfgs {
			tr, err := trace.Cached(benchmarks[b], e.sc.Insts)
			if err != nil {
				return nil, nil, err
			}
			res := make([]sim.Result, len(cfgs))
			took := make([]time.Duration, len(cfgs))
			par.For(workers, len(cfgs), func(i int) {
				sc := sim.FromDesign(cfgs[i])
				sc.WarmupInsts = e.sc.Insts / 5
				t0 := time.Now()
				res[i] = sim.Run(sc, tr)
				took[i] = time.Since(t0)
			})
			for i, r := range res {
				got := p.values[b][i]
				if math.IsNaN(got) {
					continue // a failed request, counted in failed
				}
				if math.Float64bits(got) != math.Float64bits(r.CPI()) {
					return nil, nil, fmt.Errorf("pass %d %s config %d: farm CPI %v != in-process %v", pi, benchmarks[b], i, got, r.CPI())
				}
				cycles[pi] += r.Cycles
				local[pi] += took[i]
			}
		}
	}
	return cycles, local, nil
}

func runFarm(e *env) (*result, error) {
	res := newResult()
	client := newClient()
	var roles []*role
	var pool *cluster.Pool
	defer func() { stopAll(roles) }()
	warm := farmConfigs(e, -1, workers)
	setups, err := repeatSetup(e, func() (func(), error) {
		var rs []*role
		for i := 0; i < workers; i++ {
			r, err := startRole(e, "simworker", "/healthz")
			if err != nil {
				stopAll(rs)
				return nil, err
			}
			rs = append(rs, r)
		}
		urls := make([]string, len(rs))
		for i, r := range rs {
			urls[i] = r.url
		}
		// Hedging is off: on a two-CPU host a hedge's duplicate runs on the
		// CPUs of the request it races, so it only adds load, and whether
		// a pass hedges makes its time bimodal.
		p, err := cluster.NewPool(urls, cluster.PoolOptions{MaxInflight: 1, BatchChunk: farmChunk, HedgeQuantile: -1, Client: client})
		if err != nil {
			stopAll(rs)
			return nil, err
		}
		// Warm-up: round-robin sends each benchmark to both workers, so
		// each generates every trace before the measured passes.
		for b := range benchmarks {
			for _, cfg := range warm[b] {
				req := cluster.EvalRequest{Benchmark: benchmarks[b], TraceLen: e.sc.Insts,
					Configs: []cluster.WireConfig{cluster.FromConfig(cfg)}}
				if _, _, err := p.EvalChunk(context.Background(), req); err != nil {
					stopAll(rs)
					return nil, err
				}
			}
		}
		roles, pool = rs, p
		return func() { stopAll(rs) }, nil
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		return tracedFarm(e, res, client, roles, pool)
	}
	// Every farm run also pays for the in-process check of its values,
	// so keep the inputs of each pass.
	var ps []*farmPass
	var rss []float64
	cpu0, err := rolesCPU(roles)
	if err != nil {
		return nil, err
	}
	durs, refs, err := passes(e.dur, 2, func(i int) error {
		if err := rolesResetRSS(roles); err != nil {
			return err
		}
		ps = append(ps, runPass(context.Background(), e, pool, farmConfigs(e, i, e.sc.FarmPerBench)))
		peak, err := rolesRSS(roles)
		rss = append(rss, peak)
		return err
	})
	if err != nil {
		return nil, err
	}
	cpu1, err := rolesCPU(roles)
	if err != nil {
		return nil, err
	}
	var chunkLat []time.Duration
	for _, p := range ps {
		res.attempted += len(p.chunks)
		res.failed += p.failed
		chunkLat = append(chunkLat, p.chunks...)
	}
	cycles, _, err := checkFarm(e, ps)
	if err != nil {
		return nil, err
	}
	perPass := float64(len(benchmarks) * e.sc.FarmPerBench)
	scaled := refScaledMS(durs, refs)
	passS := median(scaled) / 1000
	res.e2e["setup_s"] = series{xs: setups}
	res.e2e["op_ms"] = series{xs: scaled}
	res.e2e["items_per_s"] = series{xs: []float64{perPass / passS}}
	res.e2e["peak_rss_mb"] = series{xs: rss, lowest: true}
	res.detail["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(durs))
	res.detail["sim.runs_per_op"] = perPass
	res.detail["sim.cycles_per_op"] = float64(cycles[0])
	res.detail["sim_minst_per_s"] = perPass * float64(e.sc.Insts) / 1e6 / passS
	res.detail["cluster.chunk_p50_ms"] = median(ms(chunkLat))
	res.detail["op_raw_ms"] = median(ms(durs))
	res.detail["host.ref_ms"] = median(ms(refs))
	return res, nil
}

// tracedFarm alternates an untraced pass with a traced one, so both see
// the same host and their ratio is the tracing overhead. The workers'
// metrics are read around each traced pass.
func tracedFarm(e *env, res *result, client *http.Client, roles []*role, pool *cluster.Pool) (*result, error) {
	ctx := obs.WithTrace(context.Background(), e.trace)
	var ps []*farmPass
	var plain, traced []time.Duration
	var evalSec float64
	var workerSims int64
	for start := time.Now(); len(traced) < 2 || time.Since(start) < e.dur; {
		t0 := time.Now()
		ps = append(ps, runPass(context.Background(), e, pool, farmConfigs(e, len(ps), e.sc.FarmPerBench)))
		plain = append(plain, time.Since(t0))
		before, err := scrapeAll(client, roles)
		if err != nil {
			return nil, err
		}
		pctx, end := obs.StartSpanCtx(ctx, "cluster.pass")
		t1 := time.Now()
		ps = append(ps, runPass(pctx, e, pool, farmConfigs(e, len(ps), e.sc.FarmPerBench)))
		traced = append(traced, time.Since(t1))
		end()
		after, err := scrapeAll(client, roles)
		if err != nil {
			return nil, err
		}
		for _, b := range benchmarks {
			_, s := histDelta(before, after, `cluster.worker_eval_seconds{benchmark="`+b+`"}`)
			evalSec += s
		}
		workerSims += counterDelta(before, after, "cluster.worker_sims")
	}
	cycles, local, err := checkFarm(e, ps)
	if err != nil {
		return nil, err
	}
	var chunkSum, localSum time.Duration
	distinct := map[string]bool{}
	for i, p := range ps {
		res.attempted += len(p.chunks)
		res.failed += p.failed
		if i%2 == 0 {
			continue // untraced
		}
		chunkSum += sumDur(p.chunks)
		localSum += local[i]
		for b, cfgs := range p.cfgs {
			for _, c := range cfgs {
				distinct[benchmarks[b]+"/"+c.Key()] = true
			}
		}
	}
	lanes := workers * sumDur(traced).Seconds()
	l := res.layers
	l["cluster.worker_eval_pct"] = 100 * evalSec / lanes
	l["cluster.hop_pct"] = 100 * (chunkSum.Seconds() - evalSec) / lanes
	l["bench.unattributed_pct"] = 100 - l["cluster.worker_eval_pct"] - l["cluster.hop_pct"]
	l["cluster.useful_sim_ratio"] = ratio(float64(len(distinct)), float64(workerSims))
	l["sim.parallel_efficiency"] = localSum.Seconds() / lanes
	l["traced.op_mean_ms"] = meanMS(traced)
	l["bench.trace_overhead_pct"] = 100 * (float64(sumDur(traced))/float64(sumDur(plain)) - 1)
	l["sim.runs_per_op"] = float64(len(benchmarks) * e.sc.FarmPerBench)
	l["sim.cycles_per_op"] = float64(cycles[0])
	l["rbf.centers"] = 0
	l["model_mean_err_pct"] = 0 // the farm's values are simulations
	zero(l, buildLayers, serveLayers)
	return res, simProbe(e, ps[0].cfgs[0], l)
}
