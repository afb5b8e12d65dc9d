// Command predrouter fronts a fleet of predserve shards: models are
// consistent-hash assigned to shards, prediction and search traffic is
// routed to the owning shard, and a shard failure fails over to the
// ring's secondary without the client noticing.
//
// Usage:
//
//	predserve -addr 127.0.0.1:9201 -models models   # shard A
//	predserve -addr 127.0.0.1:9202 -models models   # shard B
//	predrouter -shards 127.0.0.1:9201,127.0.0.1:9202
//
//	curl -X POST localhost:9300/v1/predict -d \
//	  '{"model":"mcf","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}'
//	curl localhost:9300/v1/models            # merged listing across shards
//	curl localhost:9300/statusz              # SLO burn, shard health, model placement
//	curl localhost:9300/metricz              # the router's own metrics and SLO states
//	curl "localhost:9300/tracez?q=error"     # routed requests' traces, every hop's spans
//
// The router declares the request SLO pair predserve declares, over its
// own edge: "router-latency" (99.9% of requests within 250ms) and
// "router-availability" (99.9% non-5xx), counted as its clients saw
// them, so its own 503 no_shard counts, a failover the secondary served
// does not, and the latency is the whole routed request. /statusz shows
// their burn, and /metricz carries them in slos, slo_burn_rate and
// slo_firing. The router samples traces at the fixed -trace-sample rate
// and carries its decision to every shard and worker a request reaches.
//
// The router polls every shard's /v1/models on -sync-every; the model
// generation vector piggybacked on those responses detects hot swaps
// (a load bumps the generation), and the router re-syncs the model's
// secondary shard with POST /v1/models/load so failover keeps serving
// current coefficients. This assumes the shards share the
// -models directory (bind mount, NFS, or same host).
//
// POST /v1/models/load through the router fans the load to the model's
// primary and secondary shards — both must host it for failover to
// work. 4xx answers from a shard are authoritative and relayed as-is;
// only transport errors, timeouts, and 5xx trigger failover.
//
// SIGINT/SIGTERM drains in-flight requests (deadline -drain) and exits
// 0 on a clean drain.
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("predrouter: ")

	rf := role.Define(flag.CommandLine, "127.0.0.1:9300", 30*time.Second, "per-attempt deadline against one shard", 1<<20)
	shards := flag.String("shards", "", "comma-separated predserve shard base URLs (required)")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per shard on the consistent-hash ring")
	syncEvery := flag.Duration("sync-every", 5*time.Second, "cadence of the /v1/models topology poll driving replica re-sync")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("-shards is required (comma-separated predserve base URLs)")
	}

	// The window-rotation ticker keeps the SLO burn rates current even
	// when no requests arrive to drive lazy rotation.
	obs.Enable()
	stopRotation := obs.StartWindowRotation(obs.DefWindowBucket)
	defer stopRotation()

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:         urls,
		Replicas:       *replicas,
		RequestTimeout: rf.Timeout,
		MaxBodyBytes:   rf.MaxBody,
		SyncInterval:   *syncEvery,
		TraceSample:    rf.SampleRate(),
		TraceStoreSize: rf.TraceStore,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ring: %s", strings.Join(rt.Ring().Shards(), ", "))
	role.Run("predrouter", rf, rt)
}
