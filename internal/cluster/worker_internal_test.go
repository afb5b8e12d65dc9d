package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWorkerBoundsEvaluatorMemo: an evaluator that stays hot memoizes at
// most evaluatorSims simulations. After evaluatorSims+100 distinct
// configs at trace length 200, sent in chunks, /healthz shows at most
// evaluatorSims for the evaluator, and a config from the last chunk,
// sent again, is a memo hit of the evaluator that replaced the full one.
func TestWorkerBoundsEvaluatorMemo(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Workers: 2}).Handler())
	defer srv.Close()
	eval := func(cfgs []WireConfig) EvalResponse {
		t.Helper()
		body, err := json.Marshal(EvalRequest{Benchmark: "crafty", TraceLen: 200, Configs: cfgs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/eval", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out EvalResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("eval of %d configs = %d (%v)", len(cfgs), resp.StatusCode, err)
		}
		return out
	}
	cfgs := make([]WireConfig, evaluatorSims+100)
	for i := range cfgs {
		cfgs[i] = WireConfig{Depth: 1 + i%96, ROB: 16 + i/96, IQ: 8, LSQ: 8,
			L2KB: 256, L2Lat: 5, IL1KB: 8, DL1KB: 8, DL1Lat: 1}
	}
	const chunk = 128 // divides evaluatorSims: the last chunk finds the memo full
	for lo := 0; lo < len(cfgs); lo += chunk {
		hi := min(lo+chunk, len(cfgs))
		if got := eval(cfgs[lo:hi]); got.Sims != hi-lo {
			t.Fatalf("configs %d..%d ran %d simulations, want %d", lo, hi, got.Sims, hi-lo)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Evaluators []workerLoadedEvaluator `json:"evaluators"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(health.Evaluators) != 1 || health.Evaluators[0].Sims > evaluatorSims {
		t.Fatalf("evaluators %+v, want one holding at most %d simulations", health.Evaluators, evaluatorSims)
	}
	if got := eval(cfgs[len(cfgs)-1:]); got.Sims != 0 {
		t.Fatalf("a config of the last chunk ran %d simulations again, want a memo hit", got.Sims)
	}
}
