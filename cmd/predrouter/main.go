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
//	curl localhost:9300/statusz              # topology: shard health + model placement
//	curl localhost:9300/fleetz               # fleet-wide merged metrics + SLO burn
//	curl "localhost:9300/tracez?q=error"     # routed requests' traces, every hop's spans
//
// With -workers, the router also scrapes the evaluation farm's
// simworkers into /fleetz.
// /fleetz merges every role's /metricz report into one fleet aggregate
// (exact bucket-wise histogram sums) on the -fleet-scrape-every cadence
// and evaluates fleet SLO burn over the merged windows. The router
// samples traces at the fixed -trace-sample rate and carries its
// decision to every shard and worker a request reaches.
//
// The router polls every shard's /v1/models on -sync-every; the model
// generation vector piggybacked on those responses detects hot swaps
// (a load or retrain bumps the generation), and the router re-syncs the
// model's secondary shard with POST /v1/models/load so failover keeps
// serving current coefficients. This assumes the shards share the
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
	workers := flag.String("workers", "", "comma-separated simworker base URLs scraped into /fleetz (the router routes no traffic to them)")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per shard on the consistent-hash ring")
	syncEvery := flag.Duration("sync-every", 5*time.Second, "cadence of the /v1/models topology poll driving replica re-sync")
	fleetScrapeEvery := flag.Duration("fleet-scrape-every", 5*time.Second, "cadence of the /fleetz metrics federation across shards and workers (0 disables the background loop; /fleetz?refresh=1 still scrapes on demand)")
	flag.Parse()

	splitURLs := func(s string) []string {
		var out []string
		for _, u := range strings.Split(s, ",") {
			if u = strings.TrimSpace(u); u != "" {
				out = append(out, u)
			}
		}
		return out
	}
	urls := splitURLs(*shards)
	if len(urls) == 0 {
		log.Fatal("-shards is required (comma-separated predserve base URLs)")
	}

	obs.Enable()

	scrape := *fleetScrapeEvery
	if scrape <= 0 {
		scrape = -1 // the Options zero value means "default", not "off"
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:              urls,
		Workers:             splitURLs(*workers),
		Replicas:            *replicas,
		RequestTimeout:      rf.Timeout,
		MaxBodyBytes:        rf.MaxBody,
		SyncInterval:        *syncEvery,
		TraceSample:         rf.SampleRate(),
		TraceStoreSize:      rf.TraceStore,
		FleetScrapeInterval: scrape,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ring: %s", strings.Join(rt.Ring().Shards(), ", "))
	role.Run("predrouter", rf, rt)
}
