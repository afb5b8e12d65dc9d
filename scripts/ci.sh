#!/usr/bin/env bash
# Tier-1 CI gate: formatting, vet, build, the full test suite under the
# race detector, and a one-iteration benchmark smoke pass so the
# instrumented hot paths keep compiling and running. Run from anywhere
# inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

# wait_addr <log> <role> prints the address <role> announced in <log>
# ("<role>: listening on <addr>"), polling for up to 5 s. If it never
# appears, it prints the log to stderr and fails.
wait_addr() {
    local a=""
    for _ in $(seq 1 50); do
        a=$(sed -n "s/^$2: listening on //p" "$1")
        [ -n "$a" ] && break
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "$2 did not start:" >&2
        cat "$1" >&2
        return 1
    fi
    echo "$a"
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== fuzz /v1/predict bodies (10 s) =="
go test -run '^$' -fuzz '^FuzzPredictBody$' -fuzztime 10s ./internal/serve

echo "== fuzz traceparent and request-ID parsing (5 s) =="
go test -run '^$' -fuzz '^FuzzTraceparent$' -fuzztime 5s ./internal/obs

echo "== fuzz the router's model peek against encoding/json (5 s) =="
go test -run '^$' -fuzz '^FuzzPeekModel$' -fuzztime 5s ./internal/role

echo "== fuzz the X-Trace-Spans decode and graft (5 s) =="
go test -run '^$' -fuzz '^FuzzSpanTrailer$' -fuzztime 5s ./internal/obs

echo "== fuzz scraped /metricz reports (5 s) =="
go test -run '^$' -fuzz '^FuzzReport$' -fuzztime 5s ./internal/obs

echo "== fuzz the /tracez handler's query parameters (5 s) =="
go test -run '^$' -fuzz '^FuzzTracez$' -fuzztime 5s ./internal/obs

echo "== fuzz /v1/search bodies (5 s) =="
go test -run '^$' -fuzz '^FuzzSearchBody$' -fuzztime 5s ./internal/serve

echo "== fuzz model files through LoadModel (5 s) =="
go test -run '^$' -fuzz '^FuzzLoadModel$' -fuzztime 5s ./internal/core

echo "== fuzz /v1/eval bodies (5 s) =="
go test -run '^$' -fuzz '^FuzzEvalRequest$' -fuzztime 5s ./internal/cluster

echo "== fuzz admitted configs through the simulator (5 s) =="
go test -run '^$' -fuzz '^FuzzSimRun$' -fuzztime 5s ./internal/cluster

echo "== fuzz the tag store against its tick-LRU oracle (5 s) =="
go test -run '^$' -fuzz '^FuzzCacheLRU$' -fuzztime 5s ./internal/sim/cache

echo "== fuzz the JSON value skipper (5 s) =="
go test -run '^$' -fuzz '^FuzzSkip$' -fuzztime 5s ./internal/wirejson

echo "== one HTML page template =="
# Every HTML view renders through the one template in internal/obs/page.go,
# so a second template.Must( in non-test code is a visible diff here.
ntmpl=$(grep -r --include='*.go' --exclude='*_test.go' -o 'template\.Must(' internal cmd | grep -vc '^cmd/bench/' || true)
if [ "$ntmpl" != 1 ]; then
    echo "non-test code holds $ntmpl template.Must( calls, want 1 (internal/obs/page.go)" >&2
    exit 1
fi

echo "== one outbound hop =="
# Every role-to-role request goes through role.Call (internal/role/call.go),
# so the hop protocol has one copy: internal/role holds the only
# http.Client call, the only code that sets Traceparent and the only code
# that reads the X-Trace-Spans trailer, in non-test Go under internal/ and
# cmd/ outside cmd/bench. A second copy anywhere else fails here.
hop_lines() {
    grep -rnE --include='*.go' --exclude='*_test.go' "$1" internal cmd | grep -v '^cmd/bench/' || true
}
only_in_role() {
    if ! grep -q '^internal/role/' <<<"$2"; then
        echo "internal/role holds no $1" >&2
        exit 1
    fi
    if grep -v '^internal/role/' <<<"$2" | grep -q .; then
        echo "$1 outside internal/role; send role-to-role requests through role.Call:" >&2
        grep -v '^internal/role/' <<<"$2" >&2
        exit 1
    fi
}
only_in_role "http.Client Do call" "$(hop_lines '\.Do\(|http\.(Get|Head|Post|PostForm)\(' | grep -vE '[Oo]nce\.Do\(' || true)"
only_in_role "code that sets Traceparent" "$(hop_lines '(Set|Add)\((obs\.)?TraceparentHeader|(Set|Add)\("Traceparent"')"
only_in_role "read of the X-Trace-Spans trailer" "$(hop_lines '\.Trailer\b')"

echo "== one /tracez handler =="
# Every role serves its own trace store and nothing else on /tracez: each
# /tracez mount in non-test Go under internal/ and cmd/, outside
# cmd/bench, is an obs.TraceStore's Handler(). A role that grows a trace
# view of its own fails here.
tracez_store='Handle\("/tracez", [A-Za-z_.]*[Tt]races(\(\))?\.Handler\(\)\)'
tracez_mounts=$(grep -rnE --include='*.go' --exclude='*_test.go' 'Handle(Func)?\("/tracez"' internal cmd | grep -v '^cmd/bench/' || true)
if ! grep -q . <<<"$tracez_mounts"; then
    echo "no /tracez mount in non-test code" >&2
    exit 1
fi
if grep -vE "$tracez_store" <<<"$tracez_mounts" | grep -q .; then
    echo "/tracez mounted on something other than a TraceStore's Handler():" >&2
    grep -vE "$tracez_store" <<<"$tracez_mounts" >&2
    exit 1
fi

echo "== benchmark smoke (1 iteration each) =="
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== quick-scale paper results golden =="
# The quick-scale experiment suite is deterministic: its output must match
# cmd/experiments/testdata/quick.golden byte for byte once the wall-clock
# section and total timings are masked. After an intended change to the
# results, regenerate the golden by redirecting this pipeline into it. It
# is pinned on amd64 only, because Go fuses multiply-add on other
# architectures, which moves low-order digits.
mask_timings='s/^(=== [a-z0-9]+) \([0-9.]+s\) ===$/\1 (N.Ns) ===/; s/^total: [0-9.]+s$/total: N.Ns/'
if [ "$(go env GOARCH)" = amd64 ]; then
    go run ./cmd/experiments -scale quick | sed -E "$mask_timings" |
        diff -u cmd/experiments/testdata/quick.golden -
else
    echo "skipped on $(go env GOARCH): the golden is pinned on amd64"
fi

echo "== paper-scale paper results =="
# The results EXPERIMENTS.md reports: the paper-scale suite must still
# print experiments_paper.txt byte for byte, timings masked on both
# sides, so no change moves Table 3, Table 4 or Figure 7 unseen. It
# takes minutes (about 200 s on two CPUs) and is pinned on amd64, as
# above.
if [ "$(go env GOARCH)" = amd64 ]; then
    go run ./cmd/experiments -scale paper | sed -E "$mask_timings" |
        diff -u <(sed -E "$mask_timings" experiments_paper.txt) -
else
    echo "skipped on $(go env GOARCH): the results are pinned on amd64"
fi

echo "== trace file format =="
# The v1 trace file keeps separate address and target slots although
# trace.Inst holds both in Addr: tracegen's mcf file at 30k instructions
# must keep its bytes (pinned on amd64, as the goldens are), and
# simulating the file must print the cycles and CPI of simulating the
# named benchmark.
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
go run ./cmd/tracegen -bench mcf -insts 30000 -o "$trace_dir/mcf.trace" > /dev/null
if [ "$(go env GOARCH)" = amd64 ]; then
    echo "613dd9b6e04bcb6f2acce4b424fa9116b1927d52d768ed317ec58f5aa3d37e29  $trace_dir/mcf.trace" |
        sha256sum -c --quiet -
fi
go run ./cmd/simulate -bench mcf -insts 30000 | grep -E '^(cycles|CPI) ' > "$trace_dir/bench.txt"
go run ./cmd/simulate -trace "$trace_dir/mcf.trace" | grep -E '^(cycles|CPI) ' > "$trace_dir/file.txt"
if ! diff -u "$trace_dir/bench.txt" "$trace_dir/file.txt"; then
    echo "simulating tracegen's file differs from simulating the benchmark" >&2
    exit 1
fi
rm -rf "$trace_dir"

echo "== predserve smoke =="
smoke_dir=$(mktemp -d)
smoke_pid=""
cleanup_smoke() {
    [ -n "$smoke_pid" ] && kill "$smoke_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
}
trap cleanup_smoke EXIT
# predperf -load validates a model against the simulation its file
# names (benchmark, trace length, metric), not the flags' defaults: an
# EDP equake model reloaded with no other flag validates exactly as it
# did when it was built.
go run ./cmd/predperf -bench equake -insts 20000 -sample 20 -metric edp \
    -save "$smoke_dir/edp.json" | grep 'validation (' > "$smoke_dir/edp-build.txt"
go run ./cmd/predperf -load "$smoke_dir/edp.json" | grep 'validation (' > "$smoke_dir/edp-load.txt"
if ! diff -u "$smoke_dir/edp-build.txt" "$smoke_dir/edp-load.txt"; then
    echo "predperf -load validated the model differently from its build" >&2
    exit 1
fi
go run ./cmd/predperf -bench mcf -insts 2000 -sample 12 -lhs 8 -test 4 \
    -save "$smoke_dir/mcf.json" -trace "$smoke_dir/build-trace.json" > /dev/null
# The -trace flag must emit loadable Chrome trace-event JSON with nested
# build spans.
grep -q '"traceEvents"' "$smoke_dir/build-trace.json"
grep -q '"name": "core.build_rbf"' "$smoke_dir/build-trace.json"
grep -q '"name": "core.sim_point"' "$smoke_dir/build-trace.json"
go build -o "$smoke_dir/predserve" ./cmd/predserve
# -version prints build info without serving.
"$smoke_dir/predserve" -version | grep -q 'model-format'
# Knob ratchet: predserve has exactly 13 flags, so adding one is a
# visible diff here.
nflags=$("$smoke_dir/predserve" -h 2>&1 | grep -c '^  -')
if [ "$nflags" != 13 ]; then
    echo "predserve -h lists $nflags flags, want 13" >&2
    exit 1
fi
# Start with an EMPTY model directory so /readyz goes through its full
# lifecycle, and shadow-verify 100% of served predictions on the
# simulator (on the trace length and metric the model file names).
mkdir "$smoke_dir/models"
"$smoke_dir/predserve" -addr 127.0.0.1:0 -models "$smoke_dir/models" \
    -shadow-frac 1.0 \
    > "$smoke_dir/predserve.log" 2>&1 &
smoke_pid=$!
addr=$(wait_addr "$smoke_dir/predserve.log" predserve)
curl -fsS "http://$addr/healthz" | grep -q '"status":"ok"'
# /healthz carries build info.
curl -fsS "http://$addr/healthz" | grep -q '"go_version"'
# Every response carries an X-Request-Id (generated here; echoed if sent).
curl -fsS -D - -o /dev/null "http://$addr/healthz" | grep -qi '^x-request-id:'
# Empty registry: alive but not ready, with a structured reason.
code=$(curl -s -o "$smoke_dir/readyz.json" -w '%{http_code}' "http://$addr/readyz")
if [ "$code" != 503 ]; then
    echo "readyz before load returned $code, want 503" >&2
    exit 1
fi
grep -q '"no_models"' "$smoke_dir/readyz.json"
# predperf stamps the model with the simulation it was built on.
grep -q '"trace_len":2000' "$smoke_dir/mcf.json"
# Hot-load the model, after which the server must report ready.
cp "$smoke_dir/mcf.json" "$smoke_dir/models/mcf.json"
curl -fsS -X POST "http://$addr/v1/models/load" -d '{"path":"mcf.json"}' \
    | grep -q '"mcf"'
curl -fsS "http://$addr/readyz" | grep -q '"ready"'
curl -fsS -X POST "http://$addr/v1/predict" \
    -d '{"model":"mcf","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}' \
    | grep -q '"value"'
# Prometheus exposition must include at least one latency histogram series
# plus the windowed-rate gauges. Fetch once to a file: grep -q on a pipe
# closes it mid-body and set -o pipefail turns curl's EPIPE into a failure.
curl -fsS "http://$addr/metricz?format=prom" > "$smoke_dir/metricz.prom"
grep -q '_bucket{' "$smoke_dir/metricz.prom"
grep -q '^serve_http_request_seconds_count' "$smoke_dir/metricz.prom"
grep -q 'window="5m"' "$smoke_dir/metricz.prom"
grep -q '^slo_burn_rate' "$smoke_dir/metricz.prom"
# Traced requests leave OpenMetrics exemplars on the latency buckets.
grep -q 'trace_id=' "$smoke_dir/metricz.prom"
# With -shadow-frac 1.0 the served prediction is re-simulated in the
# background; wait for its error to land in the per-model histogram.
shadow_ok=""
for _ in $(seq 1 50); do
    curl -fsS "http://$addr/metricz?format=prom" > "$smoke_dir/metricz.prom"
    if grep -q 'serve_shadow_error_pct_bucket{model="mcf"' "$smoke_dir/metricz.prom"; then
        shadow_ok=1
        break
    fi
    sleep 0.2
done
if [ -z "$shadow_ok" ]; then
    echo "shadow error histogram never appeared in /metricz?format=prom" >&2
    exit 1
fi
# /statusz is a self-contained HTML dashboard with the model table.
curl -fsS "http://$addr/statusz" > "$smoke_dir/statusz.html"
grep -q '<!DOCTYPE html>' "$smoke_dir/statusz.html"
grep -q 'predserve status' "$smoke_dir/statusz.html"
grep -q 'mcf' "$smoke_dir/statusz.html"
# /alertz lists alert history as JSON (the no_models alert fired and
# resolved above).
curl -fsS "http://$addr/alertz" | grep -q '"alerts"'
curl -fsS "http://$addr/alertz" | grep -q '"no_models"'
# The ops surface is never traced: the /metricz and /statusz fetches
# above left no row in /tracez, which holds the traced predict.
curl -fsS "http://$addr/tracez?format=json" > "$smoke_dir/tracez-ops.json"
grep -q '"route":"/v1/predict"' "$smoke_dir/tracez-ops.json"
if grep -qE '"route":"/(metricz|statusz)"' "$smoke_dir/tracez-ops.json"; then
    echo "/tracez holds traces of the ops surface:" >&2
    cat "$smoke_dir/tracez-ops.json" >&2
    exit 1
fi
# Single = batch: concurrent single predictions and one batch over the
# same fresh configurations must produce byte-for-byte identical
# values. The batch response preserves request order, so concatenating
# the single values in send order must reproduce it exactly.
cfg_a='{"depth":18,"rob":64,"iq":32,"lsq":32,"l2kb":1024,"l2lat":12,"il1kb":16,"dl1kb":16,"dl1lat":1}'
cfg_b='{"depth":24,"rob":128,"iq":64,"lsq":64,"l2kb":4096,"l2lat":16,"il1kb":64,"dl1kb":64,"dl1lat":4}'
curl -fsS -X POST "http://$addr/v1/predict" \
    -d "{\"model\":\"mcf\",\"config\":$cfg_a}" > "$smoke_dir/single_a.json" &
single_a_pid=$!
curl -fsS -X POST "http://$addr/v1/predict" \
    -d "{\"model\":\"mcf\",\"config\":$cfg_b}" > "$smoke_dir/single_b.json" &
single_b_pid=$!
wait "$single_a_pid" "$single_b_pid"
curl -fsS -X POST "http://$addr/v1/predict" \
    -d "{\"model\":\"mcf\",\"configs\":[$cfg_a,$cfg_b]}" > "$smoke_dir/batch.json"
vals_single=$(grep -h -o '"value":[^,}]*' "$smoke_dir/single_a.json" "$smoke_dir/single_b.json")
vals_batch=$(grep -h -o '"value":[^,}]*' "$smoke_dir/batch.json")
if [ -z "$vals_batch" ] || [ "$vals_single" != "$vals_batch" ]; then
    echo "concurrent singles and one batch disagree:" >&2
    echo "singles: $vals_single" >&2
    echo "batch:   $vals_batch" >&2
    exit 1
fi
kill -TERM "$smoke_pid"
wait "$smoke_pid"   # non-zero (unclean drain) fails the gate via set -e
smoke_pid=""
grep -q "shut down cleanly" "$smoke_dir/predserve.log"
# The access log (default: stderr) must have JSON lines with request ids.
grep -q '"id":' "$smoke_dir/predserve.log"

echo "== drift smoke =="
# Drift and its remedy: serve a deliberately weak model (8-point fit)
# with full shadow verification and a drift threshold its real error is
# certain to exceed, so one batch trips model_drift; then rebuild it at
# twice the sample size and hot-load it, which must start the name on a
# clean drift window.
mkdir "$smoke_dir/models2"
go run ./cmd/predperf -bench mcf -insts 2000 -sample 8 -lhs 4 -test 2 \
    -save "$smoke_dir/models2/mcf.json" > /dev/null
"$smoke_dir/predserve" -addr 127.0.0.1:0 -models "$smoke_dir/models2" \
    -shadow-frac 1.0 -shadow-err-pct 0.5 \
    > "$smoke_dir/drift.log" 2>&1 &
smoke_pid=$!
addr=$(wait_addr "$smoke_dir/drift.log" predserve)
# One batch of 12 distinct configurations: enough shadow samples to
# cross the drift minimum (10) in a single request.
drift_cfgs=""
for rob in 32 48 64 80 96 112 128 144 160 176 192 208; do
    cfg="{\"depth\":14,\"rob\":$rob,\"iq\":$((rob / 2)),\"lsq\":$((rob / 2)),\"l2kb\":1024,\"l2lat\":12,\"il1kb\":32,\"dl1kb\":32,\"dl1lat\":2}"
    drift_cfgs="$drift_cfgs${drift_cfgs:+,}$cfg"
done
curl -fsS -X POST "http://$addr/v1/predict" \
    -d "{\"model\":\"mcf\",\"configs\":[$drift_cfgs]}" | grep -q '"value"'
# The shadow worker re-simulates the batch in the background; readiness
# must flip to 503 model_drift once it has.
drift_ok=""
for _ in $(seq 1 100); do
    code=$(curl -s -o "$smoke_dir/drift-readyz.json" -w '%{http_code}' "http://$addr/readyz")
    if [ "$code" = 503 ] && grep -q '"model_drift"' "$smoke_dir/drift-readyz.json"; then
        drift_ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$drift_ok" ]; then
    echo "readyz never answered 503 model_drift after a 12-config batch:" >&2
    cat "$smoke_dir/drift-readyz.json" "$smoke_dir/drift.log" >&2
    exit 1
fi
# The remedy: rebuild into the model directory and hot-load the file.
# Readiness recovers at once, and the listing shows the new generation
# at the new sample size.
go run ./cmd/predperf -bench mcf -insts 2000 -sample 16 -lhs 4 -test 2 \
    -save "$smoke_dir/models2/mcf.json" > /dev/null
curl -fsS -X POST "http://$addr/v1/models/load" -d '{"path":"mcf.json"}' | grep -q '"mcf"'
curl -fsS "http://$addr/readyz" | grep -q '"ready"'
curl -fsS "http://$addr/v1/models" > "$smoke_dir/drift-models.json"
grep -q '"generation":2[,}]' "$smoke_dir/drift-models.json"
grep -q '"sample_size":16[,}]' "$smoke_dir/drift-models.json"
kill -TERM "$smoke_pid"
wait "$smoke_pid"
smoke_pid=""
grep -q "shut down cleanly" "$smoke_dir/drift.log"

echo "== cluster smoke =="
# Distributed evaluation farm: two sim workers, a distributed model
# build that survives losing one of them mid-flight, and a predserve
# shard fronted by the consistent-hash router.
go build -o "$smoke_dir/simworker" ./cmd/simworker
go build -o "$smoke_dir/predrouter" ./cmd/predrouter
# Knob ratchets, as for predserve above: predrouter has exactly 6
# flags and simworker 9.
for r in predrouter:6 simworker:9; do
    nflags=$("$smoke_dir/${r%:*}" -h 2>&1 | grep -c '^  -')
    if [ "$nflags" != "${r#*:}" ]; then
        echo "${r%:*} -h lists $nflags flags, want ${r#*:}" >&2
        exit 1
    fi
done
worker_pids=""
cleanup_cluster() {
    for pid in $worker_pids; do kill "$pid" 2>/dev/null || true; done
    cleanup_smoke
}
trap cleanup_cluster EXIT
"$smoke_dir/simworker" -addr 127.0.0.1:0 -id w1 > "$smoke_dir/worker1.log" 2>&1 &
w1_pid=$!
"$smoke_dir/simworker" -addr 127.0.0.1:0 -id w2 > "$smoke_dir/worker2.log" 2>&1 &
w2_pid=$!
worker_pids="$w1_pid $w2_pid"
w1=$(wait_addr "$smoke_dir/worker1.log" simworker)
w2=$(wait_addr "$smoke_dir/worker2.log" simworker)
curl -fsS "http://$w1/healthz" | grep -q '"simworker"'
# Distributed build through the farm, killing worker 1 immediately: the
# pool must retry its in-flight chunks against worker 2 and the build
# must still complete and persist a loadable model.
mkdir "$smoke_dir/models3"
go run ./cmd/predperf -bench mcf -insts 2000 -sample 12 -lhs 8 -test 4 \
    -sim-workers "$w1,$w2" \
    -save "$smoke_dir/models3/mcf.json" > "$smoke_dir/farmbuild.log" 2>&1 &
build_pid=$!
kill -KILL "$w1_pid"
if ! wait "$build_pid"; then
    echo "distributed build failed after losing a worker:" >&2
    cat "$smoke_dir/farmbuild.log" >&2
    exit 1
fi
worker_pids="$w2_pid"
grep -q '"name":"mcf"' "$smoke_dir/models3/mcf.json"
# A predserve shard over the farm-built model, fronted by the router.
# The shard's simulator consumers fan out to the surviving worker so a
# simulator-verified search crosses all three roles in one trace.
"$smoke_dir/predserve" -addr 127.0.0.1:0 -models "$smoke_dir/models3" \
    -sim-workers "$w2" \
    > "$smoke_dir/shard.log" 2>&1 &
shard_pid=$!
worker_pids="$worker_pids $shard_pid"
shard=$(wait_addr "$smoke_dir/shard.log" predserve)
"$smoke_dir/predrouter" -addr 127.0.0.1:0 -shards "$shard" \
    > "$smoke_dir/router.log" 2>&1 &
router_pid=$!
worker_pids="$worker_pids $router_pid"
router=$(wait_addr "$smoke_dir/router.log" predrouter)
# Prediction through the router must match the shard's own answer.
curl -fsS -X POST "http://$router/v1/predict" \
    -d '{"model":"mcf","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}' \
    > "$smoke_dir/routed.json"
grep -q '"value"' "$smoke_dir/routed.json"
curl -fsS "http://$router/v1/models" | grep -q '"mcf"'
curl -fsS "http://$router/statusz" > "$smoke_dir/router-statusz.html"
grep -q 'predrouter' "$smoke_dir/router-statusz.html"
# The HTML views come out whole: simworker's /statusz and the router's
# /tracez list end with the page's closing tag.
curl -fsS "http://$w2/statusz" > "$smoke_dir/worker-statusz.html"
curl -fsS "http://$router/tracez" > "$smoke_dir/router-tracez.html"
for page in worker-statusz router-tracez; do
    if [ "$(tail -n 1 "$smoke_dir/$page.html")" != "</html>" ]; then
        echo "$page.html does not end with </html>:" >&2
        tail -5 "$smoke_dir/$page.html" >&2
        exit 1
    fi
done
# A simulator-verified search through the router crosses every role
# (router → shard → worker); the router's /tracez must hold ONE merged
# trace whose span forest spans all three.
curl -fsS -X POST "http://$router/v1/search" \
    -d '{"model":"mcf","verify":"sim"}' > "$smoke_dir/routed-search.json"
grep -q '"best"' "$smoke_dir/routed-search.json"
grep -q '"verified_by":"simulator"' "$smoke_dir/routed-search.json"
curl -fsS "http://$router/tracez?format=json&route=/v1/search" > "$smoke_dir/tracez.json"
tid=$(grep -o '"id":"[^"]*"' "$smoke_dir/tracez.json" | head -1 | cut -d'"' -f4)
[ -n "$tid" ] || { echo "router /tracez holds no /v1/search trace" >&2; cat "$smoke_dir/tracez.json" >&2; exit 1; }
curl -fsS "http://$router/tracez?id=$tid&format=json" > "$smoke_dir/trace.json"
grep -q '"router.forward"' "$smoke_dir/trace.json"
grep -q '"serve.search"' "$smoke_dir/trace.json"
grep -q '"cluster.worker_eval"' "$smoke_dir/trace.json"
# The merged trace exports as one loadable Chrome timeline.
curl -fsS "http://$router/tracez?id=$tid&format=chrome" > "$smoke_dir/routed-trace.json"
grep -q '"traceEvents"' "$smoke_dir/routed-trace.json"
# Clean SIGTERM drain of every role.
for pid in $router_pid $shard_pid $w2_pid; do
    kill -TERM "$pid"
    wait "$pid"
done
worker_pids=""
grep -q "shut down cleanly" "$smoke_dir/router.log"
grep -q "shut down cleanly" "$smoke_dir/shard.log"
grep -q "shut down cleanly" "$smoke_dir/worker2.log"

echo "== front-door SLO smoke =="
# The router over 2 shards: its /v1/models listing must reload nothing
# and a load through it must reach both shards. Then its own request
# SLO pair: the router's /tracez?q= must find a routed trace holding
# the shard's spans and export it as one Chrome timeline, an induced
# latency burn must fire router-latency on the router's own /metricz
# and clear once good traffic dilutes it, and once both shards have
# drained, routed predicts answer 503 and router-availability fires.
predbody='{"model":"mcf","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}'
# The shards serve a model built on 50k-instruction traces (16
# simulations), so a simulator-verified search re-simulates at 50k.
mkdir "$smoke_dir/models4"
go run ./cmd/predperf -bench mcf -insts 50000 -sample 12 -lhs 8 -test 4 \
    -save "$smoke_dir/models4/mcf.json" > /dev/null
"$smoke_dir/predserve" -addr 127.0.0.1:0 -models "$smoke_dir/models4" \
    -access-log off > "$smoke_dir/fshard1.log" 2>&1 &
fs1_pid=$!
"$smoke_dir/predserve" -addr 127.0.0.1:0 -models "$smoke_dir/models4" \
    -access-log off > "$smoke_dir/fshard2.log" 2>&1 &
fs2_pid=$!
worker_pids="$fs1_pid $fs2_pid"
fs1=$(wait_addr "$smoke_dir/fshard1.log" predserve)
fs2=$(wait_addr "$smoke_dir/fshard2.log" predserve)
"$smoke_dir/predrouter" -addr 127.0.0.1:0 -shards "$fs1,$fs2" -trace-sample 0.02 \
    > "$smoke_dir/frouter.log" 2>&1 &
fr_pid=$!
worker_pids="$worker_pids $fr_pid"
fr=$(wait_addr "$smoke_dir/frouter.log" predrouter)
# The router changes no replica on its own: after its /v1/models
# listing, each shard still serves mcf at generation 1. A load through
# the router reaches both shards, which then serve generation 2.
# shard_gens <want> fails unless every shard lists mcf at that generation.
shard_gens() {
    for s in $fs1 $fs2; do
        curl -fsS "http://$s/v1/models" > "$smoke_dir/shard-models.json"
        if ! grep -q "\"generation\":$1[,}]" "$smoke_dir/shard-models.json"; then
            echo "shard $s does not list mcf at generation $1:" >&2
            cat "$smoke_dir/shard-models.json" >&2
            exit 1
        fi
    done
}
curl -fsS "http://$fr/v1/models" | grep -q '"mcf"'
shard_gens 1
curl -fsS -X POST "http://$fr/v1/models/load" -d '{"path":"mcf.json"}' > /dev/null
curl -fsS "http://$fr/v1/models" | grep -q '"generation":2[,}]'
shard_gens 2
# Both SLOs are declared on the router's /metricz and /statusz.
curl -fsS "http://$fr/metricz?format=json" > "$smoke_dir/router-metricz.json"
grep -q '"router-latency"' "$smoke_dir/router-metricz.json"
grep -q '"router-availability"' "$smoke_dir/router-metricz.json"
curl -fsS "http://$fr/statusz" > "$smoke_dir/router-slo-statusz.html"
grep -q 'router-availability' "$smoke_dir/router-slo-statusz.html"
# Cross-role trace: a routed predict carrying a sampled traceparent is
# retained on the router with the shard's spans grafted under its hop;
# the router's own /tracez must find it, hold the shard's serve.predict
# span, and export it as one Chrome timeline.
curl -fsS -X POST "http://$fr/v1/predict" \
    -H 'Traceparent: 00-fleettrace01-0000000000000007-01' \
    -H 'X-Request-Id: fleettrace01' -d "$predbody" > /dev/null
curl -fsS "http://$fr/tracez?format=json&q=fleettrace01" > "$smoke_dir/fleet-tracez.json"
grep -q 'fleettrace01' "$smoke_dir/fleet-tracez.json"
curl -fsS "http://$fr/tracez?id=fleettrace01&format=json" > "$smoke_dir/fleet-trace-spans.json"
grep -q '"serve.predict"' "$smoke_dir/fleet-trace-spans.json"
curl -fsS "http://$fr/tracez?id=fleettrace01&format=chrome" > "$smoke_dir/fleet-trace.json"
grep -q '"traceEvents"' "$smoke_dir/fleet-trace.json"
# Induce an SLO burn: simulator-verified searches on the model's
# 50k-instruction trace run well past the 250ms latency threshold, so with only a handful of
# good requests in the windows both burn rates blow through the paging
# threshold and router-latency must fire.
# slo_firing <name> prints the "firing" value of the router's SLO of
# that name: the first "firing" key after its name in /metricz's JSON.
slo_firing() {
    curl -fsS "http://$fr/metricz?format=json" > "$smoke_dir/router-slos.json"
    grep -oE "\"name\": *\"$1\"|\"firing\": *[a-z]+" "$smoke_dir/router-slos.json" |
        awk -F: -v n="$1" '$0 ~ n { f = 1; next } f && !done { gsub(/ /, "", $2); print $2; done = 1 }'
}
for _ in 1 2 3; do
    curl -fsS -X POST "http://$fr/v1/search" -d '{"model":"mcf","verify":"sim"}' > /dev/null
done
if [ "$(slo_firing router-latency)" != true ]; then
    echo "router-latency did not fire after three slow searches" >&2
    cat "$smoke_dir/router-slos.json" >&2
    exit 1
fi
# Flood good traffic to dilute the windowed bad fraction below the burn
# threshold; router-latency must then clear.
for _ in $(seq 1 300); do
    curl -fsS -X POST "http://$fr/v1/predict" -d "$predbody" > /dev/null
done
if [ "$(slo_firing router-latency)" != false ]; then
    echo "router-latency still firing after 300 good predictions" >&2
    cat "$smoke_dir/router-slos.json" >&2
    exit 1
fi
# Clean SIGTERM drain of both shards; the router then has no shard to
# serve from, answers every routed predict 503 no_shard, and counts
# each against router-availability, which must fire.
for pid in $fs1_pid $fs2_pid; do
    kill -TERM "$pid"
    wait "$pid"
done
worker_pids="$fr_pid"
grep -q "shut down cleanly" "$smoke_dir/fshard1.log"
grep -q "shut down cleanly" "$smoke_dir/fshard2.log"
for _ in $(seq 1 20); do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$fr/v1/predict" -d "$predbody")
    if [ "$code" != 503 ]; then
        echo "routed predict with both shards down answered $code, want 503" >&2
        exit 1
    fi
done
if [ "$(slo_firing router-availability)" != true ]; then
    echo "router-availability did not fire after 20 routed 503s" >&2
    cat "$smoke_dir/router-slos.json" >&2
    exit 1
fi
kill -TERM "$fr_pid"
wait "$fr_pid"
worker_pids=""
grep -q "shut down cleanly" "$smoke_dir/frouter.log"

echo "== benchmark module (cmd/bench) =="
# The benchmark is its own Go module, outside `go test ./...`. Its smoke
# test starts every role binary, so role changes are checked here too.
(cd cmd/bench && go vet ./... && go test ./...)

echo "CI gate passed."
