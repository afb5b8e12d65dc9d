// Command simworker serves the cycle-level simulator over HTTP: one
// node of the distributed evaluation farm. A builder (predperf
// -sim-workers) or a serving host (predserve -sim-workers) sends
// batches of processor configurations to POST /v1/eval and gets back
// the simulated metric for each — bit-identical to simulating locally,
// because the simulator is deterministic.
//
// Usage:
//
//	simworker -addr 127.0.0.1:0        # random port, printed on stdout
//	simworker -addr 0.0.0.0:9101      # fixed port
//
//	curl -X POST localhost:9101/v1/eval -d \
//	  '{"benchmark":"mcf","trace_len":50000,"configs":[{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}'
//	curl localhost:9101/healthz
//	curl localhost:9101/metricz?format=prom
//
// Evaluators are memoized per (benchmark, trace length) with the same
// single-flight simulation cache a local build uses, so repeated
// requests for hot configurations cost one simulation total. /statusz
// is a small HTML page listing the loaded evaluators; /metricz exports
// the cluster.worker_* counters and histograms.
//
// SIGINT/SIGTERM drains in-flight requests (deadline -drain) and exits
// 0 on a clean drain.
package main

import (
	"flag"
	"log"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simworker: ")

	rf := role.Define(flag.CommandLine, "127.0.0.1:9101", 5*time.Minute, "per-request deadline", 4<<20)
	id := flag.String("id", "", "worker identity in responses and /statusz (default: the listen address)")
	maxBatch := flag.Int("max-batch", 4096, "configurations allowed in one eval request")
	maxInsts := flag.Int("max-insts", 10_000_000, "longest trace (dynamic instructions) a request may demand")
	workers := flag.Int("workers", 0, "goroutines evaluating one batch (0 = all CPUs)")
	flag.Parse()

	obs.Enable()
	w := cluster.NewWorker(cluster.WorkerOptions{
		ID:           *id,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: rf.MaxBody,
		MaxTraceLen:  *maxInsts,
		Timeout:      rf.Timeout,
		Workers:      *workers,
		TraceSample:  rf.SampleRate(),
	})
	role.Run("simworker", rf, w)
}
