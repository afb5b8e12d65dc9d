package sim

import (
	"testing"

	"predperf/internal/trace"
)

// strideTrace: a loop of loads marching through memory with a fixed
// stride. When chained, each load depends on the previous one, so the
// demand stream has no memory-level parallelism of its own and a stride
// prefetcher is the only way to overlap the misses.
func strideTrace(n int, stride uint64, chained bool) trace.Trace {
	tr := make(trace.Trace, n)
	base := uint64(0x400000)
	const loopInsts = 64
	addr := uint64(0x10000000)
	lastLoad := -1
	for i := range tr {
		pos := i % loopInsts
		pc := base + uint64(4*pos)
		in := trace.Inst{PC: pc, Op: trace.IntALU}
		switch {
		case pos == loopInsts-1:
			in.Op = trace.Branch
			in.Taken = true
			in.Addr = base
		case pos%4 == 1:
			in.Op = trace.Load
			in.Addr = addr
			addr += stride
			if chained && lastLoad >= 0 && i-lastLoad <= 64 {
				in.Dep1 = int32(i - lastLoad)
			}
			lastLoad = i
		}
		tr[i] = in
	}
	return tr
}

func TestStridePrefetchHelpsStreaming(t *testing.T) {
	off := DefaultConfig()
	off.L2.SizeKB = 256
	on := off
	on.Prefetch = Prefetch{DL1Stride: true, Degree: 4}
	tr := strideTrace(30000, 64, true) // serialized: prefetch is the only MLP source
	roff, ron := Run(off, tr), Run(on, tr)
	if ron.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if ron.CPI() >= roff.CPI()*0.9 {
		t.Fatalf("stride prefetch CPI %v not clearly better than %v", ron.CPI(), roff.CPI())
	}
}

func TestPrefetchOffByDefault(t *testing.T) {
	cfg := DefaultConfig()
	tr := strideTrace(10000, 64, false)
	r := Run(cfg, tr)
	if r.Prefetches != 0 {
		t.Fatalf("default config issued %d prefetches", r.Prefetches)
	}
}

func TestPrefetchHarmlessOnRandomAccess(t *testing.T) {
	off := DefaultConfig()
	on := off
	on.Prefetch = Prefetch{DL1Stride: true, Degree: 1}
	tr := memTrace(20000, 16<<20, 0.3) // random addresses: no stable stride
	roff, ron := Run(off, tr), Run(on, tr)
	// Within 10%: random access gains nothing but must not fall apart.
	if ron.CPI() > roff.CPI()*1.1 {
		t.Fatalf("prefetch hurt random access badly: %v vs %v", ron.CPI(), roff.CPI())
	}
}

func TestNextLinePrefetchHelpsSequentialCode(t *testing.T) {
	// A large, sequentially-walked code footprint with a cold I-cache.
	n := 40000
	tr := make(trace.Trace, n)
	base := uint64(0x400000)
	const codeInsts = 8192 // 32KB of code, looped
	for i := range tr {
		pos := i % codeInsts
		pc := base + uint64(4*pos)
		in := trace.Inst{PC: pc, Op: trace.IntALU}
		if pos == codeInsts-1 {
			in.Op = trace.Branch
			in.Taken = true
			in.Addr = base
		}
		tr[i] = in
	}
	off := DefaultConfig()
	off.IL1.SizeKB = 8 // forces streaming through the I-cache
	on := off
	on.Prefetch = Prefetch{IL1NextLine: true}
	roff, ron := Run(off, tr), Run(on, tr)
	if ron.Prefetches == 0 {
		t.Fatal("no next-line prefetches issued")
	}
	if ron.IL1Stats.Misses >= roff.IL1Stats.Misses {
		t.Fatalf("next-line prefetch did not cut IL1 misses: %d vs %d",
			ron.IL1Stats.Misses, roff.IL1Stats.Misses)
	}
	if ron.CPI() >= roff.CPI() {
		t.Fatalf("next-line prefetch CPI %v not better than %v", ron.CPI(), roff.CPI())
	}
}

func TestPrefetchLeavesLastMSHRForDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	cfg.Prefetch = Prefetch{DL1Stride: true, Degree: 4}
	tr := strideTrace(20000, 64, false)
	r := Run(cfg, tr)
	if r.Instructions != 20000 {
		t.Fatalf("committed %d", r.Instructions)
	}
	// With degree 4 but only 2 MSHRs, prefetches must be throttled, not
	// starve demand loads (run completes with sane CPI).
	if r.CPI() > 50 {
		t.Fatalf("CPI %v: prefetches starved demand misses", r.CPI())
	}
}
