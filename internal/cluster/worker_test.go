package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"unsafe"

	"predperf/internal/cluster"
	"predperf/internal/trace"
)

// TestWorkerBoundsKeptTraces: a worker asked for six distinct trace
// lengths keeps evaluators only while their traces total at most
// 2 × MaxTraceLen instructions, evicting the least recently used, and
// evicting one frees its trace, so the live heap grows by less than the
// bound's bytes. Two traces of 70k instructions fit the bound of 200k;
// six, as a worker that kept every trace holds, are twice its bytes.
func TestWorkerBoundsKeptTraces(t *testing.T) {
	const maxLen = 100_000
	srv := newWorkerServer(t, cluster.WorkerOptions{MaxTraceLen: maxLen, Workers: 1})
	const cfg = `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	for i := 0; i < 6; i++ {
		n := 70_000 - i
		resp, body := postEval(t, srv.URL, fmt.Sprintf(`{"benchmark":"mcf","trace_len":%d,"configs":[%s]}`, n, cfg))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval at trace_len %d = %d %s", n, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Evaluators []struct {
			TraceLen int `json:"trace_len"`
		} `json:"evaluators"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	kept, newest := 0, false
	for _, ev := range health.Evaluators {
		kept += ev.TraceLen
		newest = newest || ev.TraceLen == 70_000-5
	}
	if kept > 2*maxLen || !newest {
		t.Fatalf("kept evaluators %+v hold %d instructions, want at most %d including the newest", health.Evaluators, kept, 2*maxLen)
	}

	// Two collections: the first moves the simulator's pooled machine to
	// sync.Pool's victim cache, the second frees it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	bound := uint64(2*maxLen) * uint64(unsafe.Sizeof(trace.Inst{}))
	grew := int64(ms.HeapAlloc) - int64(base)
	t.Logf("live heap grew %d bytes; bound %d", grew, bound)
	if grew > int64(bound) {
		t.Fatalf("live heap grew %d bytes over six trace lengths, want under the bound's %d", grew, bound)
	}
}
