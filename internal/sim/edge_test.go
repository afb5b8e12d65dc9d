package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"predperf/internal/sim/mem"
	"predperf/internal/trace"
)

// memTrace builds a loop of independent loads spread over `footprint`
// bytes with the given fraction of loads.
func memTrace(n int, footprint uint64, loadFrac float64) trace.Trace {
	tr := make(trace.Trace, n)
	base := uint64(0x400000)
	const loopInsts = 128
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range tr {
		pos := i % loopInsts
		pc := base + uint64(4*pos)
		in := trace.Inst{PC: pc, Op: trace.IntALU}
		if pos == loopInsts-1 {
			in.Op = trace.Branch
			in.Taken = true
			in.Addr = base
		} else if float64(next()%1000)/1000 < loadFrac {
			in.Op = trace.Load
			in.Addr = 0x10000000 + (next()%footprint)&^7
		}
		tr[i] = in
	}
	return tr
}

// farEventConfig is a machine whose DRAM completions land more than 2^15
// cycles after the cycle that schedules them.
func farEventConfig() Config {
	cfg := DefaultConfig()
	cfg.Mem = mem.Config{TCAS: 40000, TRCD: 100, TRP: 100, BusCycles: 8, Banks: 8, RowBytes: 2048, QueueDepth: 16}
	cfg.L2.SizeKB = 256
	return cfg
}

func TestFarEventsComplete(t *testing.T) {
	// Completions scheduled tens of thousands of cycles ahead must all
	// fire; TestGoldenResults pins their exact timing.
	tr := memTrace(3000, 64<<20, 0.3) // misses everywhere
	r := Run(farEventConfig(), tr)
	if r.Instructions != 3000 {
		t.Fatalf("committed %d", r.Instructions)
	}
	if r.CPI() < 10 {
		t.Fatalf("CPI %v suspiciously low for 40k-cycle DRAM", r.CPI())
	}
}

// The next three tests pin, at values the cycle-by-cycle engine produced,
// runs whose idle spans end on a wake-up that no completion event marks.
// An engine that skipped idle cycles without that wake-up would move
// the numbers or wedge.

func TestWakeOnICacheFill(t *testing.T) {
	// Straight-line ALU code over 256 KB: every new line misses the
	// I-cache and the L2, so the back end drains and nothing but the
	// I-cache fill (fetchStallUntil) ends the wait.
	tr := make(trace.Trace, 6000)
	for i := range tr {
		tr[i] = trace.Inst{PC: 0x400000 + uint64(4*i)*11, Op: trace.IntALU}
	}
	r := Run(DefaultConfig(), tr)
	if r.Cycles != 342915 || r.FetchStallCycles != 338775 || r.IL1Stats.Misses != 4125 {
		t.Fatalf("cycles=%d fetchStall=%d il1Misses=%d", r.Cycles, r.FetchStallCycles, r.IL1Stats.Misses)
	}
}

func TestWakeOnFrontEndRefill(t *testing.T) {
	// Random branch outcomes every fourth instruction: after each
	// mispredict the refetched group stops at the next mispredicted
	// branch, and the machine waits, empty, until that group's head
	// reaches dispatch (fq[0].readyAt).
	tr := mkTrace(6000, 4)
	x := uint64(7)
	for i := range tr {
		if tr[i].Op == trace.Branch && tr[i].Addr == tr[i].PC+4 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			tr[i].Taken = x&1 == 0
		}
	}
	cfg := DefaultConfig()
	cfg.PipeDepth = 20
	r := Run(cfg, tr)
	if r.Cycles != 18522 || r.FetchStallCycles != 16984 || r.Mispredicts != 711 {
		t.Fatalf("cycles=%d fetchStall=%d mispredicts=%d", r.Cycles, r.FetchStallCycles, r.Mispredicts)
	}
}

// strideMixTrace builds a loop whose loads either walk an array of
// `array` bytes with an 8-byte stride from one PC, which trains the
// stride prefetcher, or hit random addresses over 64 MB, which miss to
// DRAM and fill the MSHRs.
func strideMixTrace(n int, strideFrac, randFrac float64, array uint64) trace.Trace {
	tr := make(trace.Trace, n)
	base := uint64(0x400000)
	const loopInsts = 128
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var off uint64
	for i := range tr {
		pos := i % loopInsts
		in := trace.Inst{PC: base + uint64(4*pos), Op: trace.IntALU}
		r := float64(next()%1000) / 1000
		switch {
		case pos == loopInsts-1:
			in.Op, in.Taken, in.Addr = trace.Branch, true, base
		case r < strideFrac:
			in.Op = trace.Load
			in.PC = base + 4*loopInsts
			in.Addr = 0x20000000 + off%array
			off += 8
		case r < strideFrac+randFrac:
			in.Op = trace.Load
			in.Addr = 0x10000000 + (next()%(64<<20))&^7
		}
		tr[i] = in
	}
	return tr
}

func TestWakeOnPrefetchFill(t *testing.T) {
	// Three MSHRs shared by DRAM-bound random loads and the stride
	// prefetcher's fills: a demand load that finds them all busy waits
	// for the first to free, and when that is a prefetch fill, which
	// schedules no completion event, only the MSHR's done cycle ends the
	// wait.
	cfg := DefaultConfig()
	cfg.MSHRs = 3
	cfg.Prefetch = Prefetch{DL1Stride: true, Degree: 2}
	r := Run(cfg, strideMixTrace(6000, 0.1, 0.05, 128<<10))
	if r.Cycles != 28771 || r.Prefetches != 6 || r.DL1Stats.Misses != 399 {
		t.Fatalf("cycles=%d prefetches=%d dl1Misses=%d", r.Cycles, r.Prefetches, r.DL1Stats.Misses)
	}
}

func TestMSHRLimitThrottlesParallelism(t *testing.T) {
	few := DefaultConfig()
	few.MSHRs = 1
	many := DefaultConfig()
	many.MSHRs = 16
	tr := memTrace(20000, 16<<20, 0.35)
	rf, rm := Run(few, tr), Run(many, tr)
	if rm.CPI() >= rf.CPI() {
		t.Fatalf("16 MSHRs CPI %v not better than 1 MSHR %v", rm.CPI(), rf.CPI())
	}
}

func TestCommitWidthBoundsIPC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommitWidth = 1
	tr := mkTrace(10000, 16)
	r := Run(cfg, tr)
	if r.IPC() > 1.0001 {
		t.Fatalf("IPC %v exceeds commit width 1", r.IPC())
	}
}

func TestFetchWidthBoundsIPC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FetchWidth = 2
	tr := mkTrace(10000, 16)
	r := Run(cfg, tr)
	if r.IPC() > 2.0001 {
		t.Fatalf("IPC %v exceeds fetch width 2", r.IPC())
	}
}

func TestLSQFullStallsDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LSQSize = 2
	cfg.Mem = mem.Config{TCAS: 500, TRCD: 100, TRP: 100, BusCycles: 8, Banks: 8, RowBytes: 2048, QueueDepth: 16}
	cfg.L2.SizeKB = 256
	tr := memTrace(10000, 64<<20, 0.4)
	r := Run(cfg, tr)
	if r.LSQStallCycles == 0 {
		t.Fatal("no LSQ stalls with a 2-entry LSQ under heavy misses")
	}
}

func TestWarmupReducesColdMissInflation(t *testing.T) {
	cfg := DefaultConfig()
	tr, _ := trace.Cached("crafty", 100000)
	cold := Run(cfg, tr)
	warm := cfg
	warm.WarmupInsts = 30000
	rw := Run(warm, tr)
	if rw.L2Stats.MissRate() >= cold.L2Stats.MissRate() {
		t.Fatalf("warmed L2 miss rate %v not below cold %v",
			rw.L2Stats.MissRate(), cold.L2Stats.MissRate())
	}
	// Commit bursts may overshoot the requested warmup boundary by up to
	// CommitWidth−1 instructions.
	if rw.Instructions > 70000 || rw.Instructions < 69996 {
		t.Fatalf("warm run counted %d instructions, want ≈70000", rw.Instructions)
	}
}

func TestWarmupLargerThanTraceClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 1 << 30
	tr := mkTrace(2000, 16)
	r := Run(cfg, tr)
	if r.Instructions != 1000 { // clamped to half the trace
		t.Fatalf("instructions = %d, want 1000", r.Instructions)
	}
}

func TestCyclesPositiveAndBounded(t *testing.T) {
	// CPI can never be below 1/CommitWidth or absurdly high on a sane
	// machine with predictable code.
	cfg := DefaultConfig()
	tr := mkTrace(10000, 16)
	r := Run(cfg, tr)
	minCPI := 1.0 / float64(cfg.CommitWidth)
	if r.CPI() < minCPI {
		t.Fatalf("CPI %v below structural floor %v", r.CPI(), minCPI)
	}
}

// Property/fuzz: random legal configurations on random benchmark traces
// always run to completion with finite, positive CPI.
func TestQuickRandomConfigsComplete(t *testing.T) {
	names := trace.Names()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.PipeDepth = 7 + rng.Intn(18)
		cfg.ROBSize = 24 + rng.Intn(105)
		cfg.IQSize = 2 + rng.Intn(cfg.ROBSize)
		cfg.LSQSize = 2 + rng.Intn(cfg.ROBSize)
		cfg.DL1Lat = 1 + rng.Intn(4)
		cfg.L2Lat = 5 + rng.Intn(16)
		sizes := []int{8, 16, 32, 64}
		cfg.IL1.SizeKB = sizes[rng.Intn(4)]
		cfg.DL1.SizeKB = sizes[rng.Intn(4)]
		l2s := []int{256, 512, 1024, 2048, 4096, 8192}
		cfg.L2.SizeKB = l2s[rng.Intn(6)]
		cfg.MSHRs = 1 + rng.Intn(16)
		cfg.WarmupInsts = rng.Intn(6000)
		tr, err := trace.Cached(names[rng.Intn(len(names))], 10000)
		if err != nil {
			return false
		}
		r := Run(cfg, tr)
		return r.Instructions > 0 && r.CPI() > 0.2 && r.CPI() < 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: stall accounting never exceeds total cycles.
func TestQuickStallAccountingBounded(t *testing.T) {
	names := trace.Names()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.ROBSize = 24 + rng.Intn(105)
		cfg.IQSize = 2 + rng.Intn(32)
		cfg.LSQSize = 2 + rng.Intn(32)
		tr, err := trace.Cached(names[rng.Intn(len(names))], 8000)
		if err != nil {
			return false
		}
		r := Run(cfg, tr)
		return r.ROBStallCycles <= r.Cycles &&
			r.IQStallCycles <= r.Cycles &&
			r.LSQStallCycles <= r.Cycles &&
			r.FetchStallCycles <= r.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWiderMachineNeverMuchSlower(t *testing.T) {
	// Issue/fetch/commit width 8 vs 2: more bandwidth must not hurt
	// (allowing a sliver of slack for second-order contention effects).
	for _, name := range []string{"crafty", "equake"} {
		narrow := DefaultConfig()
		narrow.FetchWidth, narrow.IssueWidth, narrow.CommitWidth = 2, 2, 2
		wide := DefaultConfig()
		wide.FetchWidth, wide.IssueWidth, wide.CommitWidth = 8, 8, 8
		tr, _ := trace.Cached(name, 20000)
		rn, rw := Run(narrow, tr), Run(wide, tr)
		if rw.CPI() > rn.CPI()*1.02 {
			t.Fatalf("%s: 8-wide CPI %v worse than 2-wide %v", name, rw.CPI(), rn.CPI())
		}
	}
}

func TestFasterMemoryNeverSlower(t *testing.T) {
	slow := DefaultConfig()
	slow.Mem = mem.Config{TCAS: 120, TRCD: 80, TRP: 80, BusCycles: 16, Banks: 8, RowBytes: 2048, QueueDepth: 16}
	fast := DefaultConfig()
	fast.Mem = mem.Config{TCAS: 30, TRCD: 25, TRP: 25, BusCycles: 4, Banks: 8, RowBytes: 2048, QueueDepth: 16}
	tr, _ := trace.Cached("mcf", 20000)
	rs, rf := Run(slow, tr), Run(fast, tr)
	if rf.CPI() >= rs.CPI() {
		t.Fatalf("fast DRAM CPI %v not better than slow %v", rf.CPI(), rs.CPI())
	}
}
