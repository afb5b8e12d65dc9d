package sim

import (
	"testing"

	"predperf/internal/trace"
)

// mkTrace builds a tiny hand-rolled trace: a loop of ALU code (so the
// I-cache footprint is small) with a branch every blockLen instructions.
// All branches except the loop-closing one fall through, so control flow
// is trivially predictable.
func mkTrace(n, blockLen int) trace.Trace {
	const loopInsts = 256 // 1KB of code
	tr := make(trace.Trace, n)
	base := uint64(0x400000)
	for i := range tr {
		pos := i % loopInsts
		pc := base + uint64(4*pos)
		in := trace.Inst{PC: pc, Op: trace.IntALU}
		if (pos+1)%blockLen == 0 || pos == loopInsts-1 {
			in.Op = trace.Branch
			in.Taken = pos == loopInsts-1
			if in.Taken {
				in.Addr = base
			} else {
				in.Addr = pc + 4
			}
		}
		tr[i] = in
	}
	return tr
}

func run(name string, n int, cfg Config) Result {
	tr, err := trace.Cached(name, n)
	if err != nil {
		panic(err)
	}
	return Run(cfg, tr)
}

func TestEmptyTrace(t *testing.T) {
	r := Run(DefaultConfig(), nil)
	if r.Cycles != 0 || r.Instructions != 0 {
		t.Fatalf("empty trace ran: %+v", r)
	}
}

func TestIdealILPApproachesWidth(t *testing.T) {
	// Independent single-cycle ALU ops with perfect prediction: IPC must
	// approach the machine width.
	cfg := DefaultConfig()
	tr := mkTrace(20000, 16)
	r := Run(cfg, tr)
	if r.CPI() > 0.5 { // 4-wide: ideal CPI 0.25; allow pipeline overheads
		t.Fatalf("ideal-ILP CPI = %v, want < 0.5", r.CPI())
	}
	if r.Instructions != 20000 {
		t.Fatalf("committed %d", r.Instructions)
	}
}

func TestSerialDependencyChainBoundsIPC(t *testing.T) {
	// Every instruction depends on its predecessor: CPI cannot drop
	// below 1 regardless of width.
	tr := mkTrace(10000, 1000000) // no branches in range
	for i := 1; i < len(tr); i++ {
		tr[i].Dep1 = 1
	}
	r := Run(DefaultConfig(), tr)
	if r.CPI() < 0.99 {
		t.Fatalf("serial chain CPI = %v, want >= ~1", r.CPI())
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a := run("mcf", 20000, cfg)
	b := run("mcf", 20000, cfg)
	if a != b {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
}

func TestAllBenchmarksComplete(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range trace.Names() {
		r := run(name, 15000, cfg)
		if r.Instructions != 15000 {
			t.Fatalf("%s committed %d", name, r.Instructions)
		}
		if cpi := r.CPI(); cpi < 0.25 || cpi > 30 {
			t.Fatalf("%s CPI = %v implausible", name, cpi)
		}
	}
}

func TestMispredictionPenaltyScalesWithDepth(t *testing.T) {
	// A trace full of unpredictable branches must get slower as the
	// pipeline deepens.
	tr := mkTrace(20000, 5)
	// Make outcomes pseudo-random (pattern too long for gshare).
	x := uint64(12345)
	for i := range tr {
		if tr[i].Op == trace.Branch {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			taken := x&1 == 0
			tr[i].Taken = taken
			tr[i].Addr = tr[i].PC + 4 // target same either way: direction still mispredicts
		}
	}
	shallow := DefaultConfig()
	shallow.PipeDepth = 7
	deep := DefaultConfig()
	deep.PipeDepth = 24
	rs, rd := Run(shallow, tr), Run(deep, tr)
	if rd.CPI() <= rs.CPI()*1.2 {
		t.Fatalf("deep pipe CPI %v not ≫ shallow %v", rd.CPI(), rs.CPI())
	}
}

func TestLargerDL1ReducesCPIForPointerCode(t *testing.T) {
	small := DefaultConfig()
	small.DL1.SizeKB = 8
	big := DefaultConfig()
	big.DL1.SizeKB = 64
	rs := run("twolf", 30000, small)
	rb := run("twolf", 30000, big)
	if rb.CPI() >= rs.CPI() {
		t.Fatalf("64KB DL1 CPI %v not better than 8KB %v", rb.CPI(), rs.CPI())
	}
	if rb.DL1Stats.Misses >= rs.DL1Stats.Misses {
		t.Fatalf("bigger DL1 missed more: %d vs %d", rb.DL1Stats.Misses, rs.DL1Stats.Misses)
	}
}

func TestL2LatencyHurtsMemoryBoundCode(t *testing.T) {
	fast := DefaultConfig()
	fast.L2Lat = 5
	slow := DefaultConfig()
	slow.L2Lat = 20
	rf := run("mcf", 30000, fast)
	rs := run("mcf", 30000, slow)
	if rs.CPI() <= rf.CPI() {
		t.Fatalf("L2 lat 20 CPI %v not worse than lat 5 %v", rs.CPI(), rf.CPI())
	}
}

func TestL2SizeMattersForMcf(t *testing.T) {
	small := DefaultConfig()
	small.L2.SizeKB = 256
	big := DefaultConfig()
	big.L2.SizeKB = 8192
	rs := run("mcf", 30000, small)
	rb := run("mcf", 30000, big)
	if rb.CPI() >= rs.CPI() {
		t.Fatalf("8MB L2 CPI %v not better than 256KB %v", rb.CPI(), rs.CPI())
	}
}

func TestIL1SizeMattersForVortex(t *testing.T) {
	small := DefaultConfig()
	small.IL1.SizeKB = 8
	big := DefaultConfig()
	big.IL1.SizeKB = 64
	rs := run("vortex", 40000, small)
	rb := run("vortex", 40000, big)
	if rb.CPI() >= rs.CPI() {
		t.Fatalf("64KB IL1 CPI %v not better than 8KB %v", rb.CPI(), rs.CPI())
	}
	if rs.IL1Stats.MissRate() < 0.01 {
		t.Fatalf("vortex 8KB IL1 miss rate %v suspiciously low", rs.IL1Stats.MissRate())
	}
}

func TestROBSizeHelpsMemoryParallelism(t *testing.T) {
	small := DefaultConfig()
	small.ROBSize, small.IQSize, small.LSQSize = 24, 12, 12
	big := DefaultConfig()
	big.ROBSize, big.IQSize, big.LSQSize = 128, 64, 64
	rs := run("equake", 30000, small)
	rb := run("equake", 30000, big)
	if rb.CPI() >= rs.CPI() {
		t.Fatalf("128-entry ROB CPI %v not better than 24-entry %v", rb.CPI(), rs.CPI())
	}
}

func TestEquakeMorePredictableThanPerlbmk(t *testing.T) {
	cfg := DefaultConfig()
	re := run("equake", 30000, cfg)
	rp := run("perlbmk", 30000, cfg)
	if re.BPStats.MispredictRate() >= rp.BPStats.MispredictRate() {
		t.Fatalf("equake mispredict rate %v not below perlbmk %v",
			re.BPStats.MispredictRate(), rp.BPStats.MispredictRate())
	}
}

func TestMcfIsMemoryBound(t *testing.T) {
	cfg := DefaultConfig()
	rm := run("mcf", 30000, cfg)
	rc := run("crafty", 30000, cfg)
	if rm.L2Stats.Misses <= rc.L2Stats.Misses {
		t.Fatalf("mcf L2 misses %d not above crafty %d", rm.L2Stats.Misses, rc.L2Stats.Misses)
	}
	if rm.CPI() <= rc.CPI() {
		t.Fatalf("mcf CPI %v not above crafty %v", rm.CPI(), rc.CPI())
	}
}

func TestStoreForwardingHappens(t *testing.T) {
	// store to X immediately followed by load from X, repeatedly.
	n := 5000
	tr := make(trace.Trace, n)
	pc := uint64(0x400000)
	for i := 0; i < n; i++ {
		in := trace.Inst{PC: pc, Op: trace.IntALU}
		switch i % 4 {
		case 1:
			in.Op = trace.Store
			in.Addr = 0x10000000 + uint64((i/4)%8)*8
		case 2:
			in.Op = trace.Load
			in.Addr = 0x10000000 + uint64((i/4)%8)*8
		}
		tr[i] = in
		pc += 4
	}
	r := Run(DefaultConfig(), tr)
	if r.LoadForwards == 0 {
		t.Fatal("no store-to-load forwarding observed")
	}
}

func TestDispatchStallAccounting(t *testing.T) {
	// A tiny ROB with long-latency serialized loads must report ROB or
	// LSQ stalls.
	cfg := DefaultConfig()
	cfg.ROBSize, cfg.IQSize, cfg.LSQSize = 8, 4, 4
	r := run("mcf", 20000, cfg)
	if r.ROBStallCycles+r.IQStallCycles+r.LSQStallCycles == 0 {
		t.Fatal("no dispatch stalls on a tiny window")
	}
}

func TestFromDesignRoundTrip(t *testing.T) {
	d := DefaultConfig()
	dc := FromDesign(designConfigFixture())
	if dc.PipeDepth != 10 || dc.ROBSize != 100 || dc.IQSize != 50 || dc.LSQSize != 40 {
		t.Fatalf("FromDesign core params wrong: %+v", dc)
	}
	if dc.IL1.SizeKB != 16 || dc.DL1.SizeKB != 32 || dc.L2.SizeKB != 1024 {
		t.Fatalf("FromDesign cache params wrong: %+v", dc)
	}
	if dc.DL1Lat != 3 || dc.L2Lat != 9 {
		t.Fatalf("FromDesign latencies wrong: %+v", dc)
	}
	// Fixed context inherited from defaults.
	if dc.FetchWidth != d.FetchWidth || dc.MSHRs != d.MSHRs {
		t.Fatalf("fixed context not inherited")
	}
}

func TestSanitizeFloors(t *testing.T) {
	cfg := Config{}
	cfg.sanitize()
	if cfg.ROBSize < 4 || cfg.IQSize < 2 || cfg.FetchWidth < 1 {
		t.Fatalf("sanitize left invalid config: %+v", cfg)
	}
}

func TestResultStringAndRates(t *testing.T) {
	r := run("crafty", 10000, DefaultConfig())
	if len(r.String()) == 0 {
		t.Fatal("empty Result string")
	}
	if r.MispredictsPerKI() <= 0 {
		t.Fatalf("mispredicts per KI = %v", r.MispredictsPerKI())
	}
	var zero Result
	if zero.CPI() != 0 || zero.IPC() != 0 || zero.MispredictsPerKI() != 0 {
		t.Fatal("zero Result rates must be zero")
	}
}

func TestHeavyMispredictStressWithTinyROB(t *testing.T) {
	// Random branches + tiny structures exercise the mispredict resolve
	// invariant (the branch is always youngest when it resolves).
	cfg := DefaultConfig()
	cfg.ROBSize, cfg.IQSize, cfg.LSQSize = 8, 4, 4
	tr := mkTrace(20000, 4)
	x := uint64(99)
	for i := range tr {
		if tr[i].Op == trace.Branch && tr[i].Addr == tr[i].PC+4 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			tr[i].Taken = x&1 == 0
		}
	}
	r := Run(cfg, tr)
	if r.Instructions != 20000 {
		t.Fatalf("committed %d", r.Instructions)
	}
	if r.Mispredicts == 0 {
		t.Fatal("stress trace produced no mispredicts")
	}
}
