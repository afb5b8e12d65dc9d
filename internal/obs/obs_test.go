package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	Reset()
	c := NewCounter("test.concurrent")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if c.Name() != "test.concurrent" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestNewCounterDedupesNames(t *testing.T) {
	a := NewCounter("test.dedupe")
	b := NewCounter("test.dedupe")
	if a != b {
		t.Fatal("duplicate registration returned a distinct counter")
	}
	Reset()
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("aliased counter sees %d, want 3", b.Value())
	}
}

func TestSpanRecordsWhenEnabled(t *testing.T) {
	Enable()
	defer Disable()
	Reset()
	for i := 0; i < 3; i++ {
		_, end := StartSpanCtx(context.Background(), "test.stage")
		time.Sleep(time.Millisecond)
		end()
	}
	st, ok := Snapshot().Stages["test.stage"]
	if !ok {
		t.Fatal("span not recorded")
	}
	if st.Count != 3 {
		t.Fatalf("span count = %d, want 3", st.Count)
	}
	if st.TotalSec <= 0 || st.MaxSec <= 0 || st.MaxSec > st.TotalSec {
		t.Fatalf("implausible span timing: %+v", st)
	}
}

func TestSpanConcurrent(t *testing.T) {
	Enable()
	defer Disable()
	Reset()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, end := StartSpanCtx(context.Background(), "test.parallel")
				end()
			}
		}()
	}
	wg.Wait()
	if st := Snapshot().Stages["test.parallel"]; st.Count != workers*per {
		t.Fatalf("span count = %d, want %d", st.Count, workers*per)
	}
}

func TestSpanNoopWhenDisabled(t *testing.T) {
	Disable()
	Reset()
	_, end := StartSpanCtx(context.Background(), "test.ghost")
	end()
	if _, ok := Snapshot().Stages["test.ghost"]; ok {
		t.Fatal("disabled span recorded a stage")
	}
	if Enabled() {
		t.Fatal("Enabled() = true after Disable")
	}
}

func TestReportRoundTrip(t *testing.T) {
	Enable()
	defer Disable()
	Reset()
	NewCounter("test.roundtrip").Add(7)
	_, end := StartSpanCtx(context.Background(), "test.rt_stage")
	end()
	rep := Snapshot()
	rep.Meta = map[string]string{"cmd": "test", "scale": "quick"}

	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != rep.Host {
		t.Fatalf("host diverged: %+v vs %+v", got.Host, rep.Host)
	}
	if got.Counters["test.roundtrip"] != 7 {
		t.Fatalf("counter lost: %v", got.Counters)
	}
	if _, ok := got.Stages["test.rt_stage"]; !ok {
		t.Fatalf("stage lost: %v", got.Stages)
	}
	if got.Meta["scale"] != "quick" {
		t.Fatalf("meta lost: %v", got.Meta)
	}
	if got.Host.CPUs < 1 || got.Host.GoVersion == "" {
		t.Fatalf("host info not populated: %+v", got.Host)
	}
}

func TestReadReportRejectsBadInput(t *testing.T) {
	if _, err := ReadReport(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for non-JSON input")
	}
	if _, err := ReadReport(strings.NewReader(`{"format": 99}`)); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

func TestSnapshotIncludesZeroCounters(t *testing.T) {
	Reset()
	NewCounter("test.zero")
	if v, ok := Snapshot().Counters["test.zero"]; !ok || v != 0 {
		t.Fatalf("zero counter missing from snapshot (ok=%v v=%d)", ok, v)
	}
}

func TestResetClearsState(t *testing.T) {
	Enable()
	defer Disable()
	c := NewCounter("test.reset")
	c.Add(5)
	_, end := StartSpanCtx(context.Background(), "test.reset_stage")
	end()
	Reset()
	if c.Value() != 0 {
		t.Fatalf("counter survived reset: %d", c.Value())
	}
	rep := Snapshot()
	if len(rep.Stages) != 0 {
		t.Fatalf("stages survived reset: %v", rep.Stages)
	}
	if rep.WallSec < 0 || rep.WallSec > 60 {
		t.Fatalf("run clock not restarted: %v", rep.WallSec)
	}
}

func TestProgressEmitsCounterLines(t *testing.T) {
	Reset()
	NewCounter("test.progress").Add(42)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "test.progress=42") {
			break
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("no progress line within deadline; got %q", s)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	mu.Lock()
	line := buf.String()
	mu.Unlock()
	if !strings.HasPrefix(line, "obs:") {
		t.Fatalf("progress line missing prefix: %q", line)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// The no-sink fast path must stay negligible: an Inc is one atomic add,
// and a disabled span is one atomic load plus a shared no-op closure.
func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, end := StartSpanCtx(context.Background(), "bench.disabled")
		end()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	Enable()
	defer Disable()
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, end := StartSpanCtx(context.Background(), "bench.enabled")
		end()
	}
}

// TestSnapshotConcurrent proves Snapshot is safe to call while counters
// and spans are being recorded from other goroutines — the /metricz
// handler of the serving layer does exactly that on a live server.
func TestSnapshotConcurrent(t *testing.T) {
	Reset()
	Enable()
	defer Disable()
	c := NewCounter("obs.test_snapshot_storm")
	const workers, iters = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				_, end := StartSpanCtx(context.Background(), "obs.test_snapshot_span")
				end()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rep := Snapshot()
				if rep.Counters["obs.test_snapshot_storm"] < 0 {
					t.Error("negative counter in snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()
	rep := Snapshot()
	if got := rep.Counters["obs.test_snapshot_storm"]; got != workers*iters {
		t.Fatalf("final counter %d, want %d", got, workers*iters)
	}
	span := rep.Stages["obs.test_snapshot_span"]
	if span.Count != workers*iters {
		t.Fatalf("final span count %d, want %d", span.Count, workers*iters)
	}
	if span.TotalSec < 0 || span.MaxSec > span.TotalSec {
		t.Fatalf("incoherent span stats %+v", span)
	}
}
