// Command predserve serves trained CPI models over HTTP: the inference
// side of the paper's pipeline. predperf -save produces model files;
// predserve loads them into a named registry and answers prediction,
// search, and introspection requests until it is told to drain.
//
// Usage:
//
//	predperf -bench mcf -sample 90 -save models/mcf.json
//	predserve -models models                  # serve every *.json in models/
//	predserve -model models/mcf.json          # serve one file
//	predserve -addr 127.0.0.1:0 -models m     # random port (printed on stdout)
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/predict -d \
//	  '{"model":"mcf","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}'
//	curl localhost:8080/metricz?format=prom   # Prometheus text exposition
//
// Every request is stamped with an X-Request-Id (the client's, if
// sent; generated otherwise), echoed in the response and written to
// the JSON-lines access log (-access-log: "stderr" by default, "off"
// to disable, or a file path to append to) with method, path, status,
// bytes, and duration. /metricz serves counters, gauges, per-route
// latency histograms, and spans as JSON, or as Prometheus text with
// ?format=prom; -pprof serves net/http/pprof on a side address.
//
// Concurrent single predictions are coalesced into micro-batches and
// scored with one vectorized RBF evaluation, bit-identical to scoring
// them alone. The dispatcher never waits: it flushes what is queued (at
// most 64) at once, and requests that arrive meanwhile form the next
// batch. Explicit batches (up to 4096 configurations) go straight to
// the vectorized path. A full admission queue (4096 waiting requests)
// answers a structured 503 (coalesce_queue_full) immediately.
//
// Operational endpoints beyond /healthz: /readyz answers 503 with
// structured reasons while the registry is empty, the request SLO
// (99.9% of requests within 250ms, 99.9% non-5xx) burns past 14.4× on
// both its 5m and 1h windows, or a model drifts from the simulator
// under shadow sampling (-shadow-frac, -shadow-err-pct); /alertz lists
// firing and resolved alerts with timestamps; /statusz is a
// self-contained HTML dashboard.
//
// Shadow sampling re-simulates a served prediction on the trace and
// metric its model file names (predperf stamps both), so a model
// drifts only when it disagrees with the simulation it was built on.
// The remedy is to rebuild it with predperf and hot-load the result
// (POST /v1/models/load), which starts the name on a clean drift
// window. A model file that names no trace length is served but never
// re-simulated.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes
// immediately, in-flight requests get -drain to finish, and the process
// exits 0 on a clean drain.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
	"predperf/internal/serve"
)

// config is predserve's parsed command line: the shared role flags, the
// serve.Options the flags set directly, and the flags main resolves
// itself.
type config struct {
	role       *role.Flags
	opt        serve.Options
	version    bool
	modelFiles string
	accessLog  string
	pprofAddr  string
	simWorkers string
}

// parseFlags defines predserve's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	o := &c.opt
	c.role = role.Define(fs, "127.0.0.1:8080", 30*time.Second, "per-request deadline: bounds a single prediction's wait in the coalescer and a whole /v1/search", 1<<20)
	fs.BoolVar(&c.version, "version", false, "print build info (Go version, model format, VCS revision) and exit")
	fs.StringVar(&o.ModelDir, "models", "", "directory of *.json models to load at startup (also anchors relative /v1/models/load paths)")
	fs.StringVar(&c.modelFiles, "model", "", "comma-separated model files to load at startup")
	fs.StringVar(&c.accessLog, "access-log", "stderr", `JSON-lines access log destination: "stderr", "off", or a file path (appended)`)
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off by default")
	fs.Float64Var(&o.ShadowFraction, "shadow-frac", 0, "fraction of served predictions re-simulated on the trace and metric their model was built on (0 disables, 1 checks everything)")
	fs.Float64Var(&o.ShadowErrPct, "shadow-err-pct", 25, "windowed mean shadow error (percent) above which a model counts as drifting (0 or negative never trips)")
	fs.StringVar(&c.simWorkers, "sim-workers", "", "comma-separated simworker base URLs; when set, search verification and shadow re-simulation fan out to the evaluation farm instead of simulating in-process")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.MaxBodyBytes, o.Timeout = c.role.MaxBody, c.role.Timeout
	o.TraceSample, o.TraceStoreSize = c.role.SampleRate(), c.role.TraceStore
	// The Options zero value means "default", not "none": an explicit 0
	// becomes the negative sentinel.
	if o.ShadowErrPct <= 0 {
		o.ShadowErrPct = -1
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("predserve: ")
	c, _ := parseFlags(flag.CommandLine, os.Args[1:]) // flag.CommandLine exits on error

	if c.version {
		b := serve.Build()
		fmt.Printf("predserve %s model-format %d", b.GoVersion, b.ModelFormat)
		if b.Revision != "" {
			fmt.Printf(" rev %s", b.Revision)
			if b.Modified {
				fmt.Print(" (modified)")
			}
		}
		fmt.Println()
		return
	}

	// Span timing is always on: /metricz is part of the API, and the
	// enabled-path cost is two clock reads per timed request. Runtime
	// gauges and the window-rotation ticker keep /statusz and the burn
	// rates current even when no requests arrive to drive lazy rotation.
	obs.Enable()
	obs.RegisterRuntimeMetrics()
	stopRotation := obs.StartWindowRotation(obs.DefWindowBucket)
	defer stopRotation()
	if c.pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(c.pprofAddr, nil))
		}()
	}

	switch c.accessLog {
	case "off", "":
		// disabled
	case "stderr":
		c.opt.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(c.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening access log: %v", err)
		}
		defer f.Close()
		c.opt.AccessLog = f
	}

	if c.simWorkers != "" {
		var urls []string
		for _, u := range strings.Split(c.simWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		pool, err := cluster.NewPool(urls, cluster.PoolOptions{})
		if err != nil {
			log.Fatalf("-sim-workers: %v", err)
		}
		log.Printf("sim-worker pool: %s", strings.Join(pool.Workers(), ", "))
		c.opt.SimPool = pool
	}

	srv := serve.New(c.opt)
	if c.opt.ModelDir != "" {
		names, err := srv.Registry().LoadDir("")
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d model(s) from %s: %s", len(names), c.opt.ModelDir, strings.Join(names, ", "))
	}
	if c.modelFiles != "" {
		for _, p := range strings.Split(c.modelFiles, ",") {
			name, err := srv.Registry().LoadFile(strings.TrimSpace(p), "")
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded model %q from %s", name, p)
		}
	}
	if srv.Registry().Len() == 0 {
		log.Print("warning: no models loaded; hot-load with POST /v1/models/load")
	}
	role.Run("predserve", c.role, srv)
}
