package sim

import (
	"fmt"
	"slices"
	"sync"

	"predperf/internal/sim/branch"
	"predperf/internal/sim/cache"
	"predperf/internal/sim/mem"
	"predperf/internal/trace"
)

type entryState uint8

const (
	stWaiting entryState = iota // dispatched, operands possibly outstanding
	stIssued                    // executing
	stDone                      // completed, awaiting commit
)

// depRef names a dependent ROB entry; seq validates against reuse after
// a flush.
type depRef struct {
	slot int32
	seq  uint64
}

// robEntry is one reorder-buffer entry, 72 bytes.
type robEntry struct {
	seq      uint64
	traceIdx int
	pc       uint64
	addr     uint64 // trace.Inst.Addr: a Load/Store's address, a Branch's target
	op       trace.Op
	state    entryState
	notReady int8

	// Branch bookkeeping (fetch-time prediction state).
	bpCP   branch.Checkpoint
	predOK bool
	taken  bool

	dependents []depRef // backing array kept across reuses of the slot
}

// fqEntry is an instruction in flight through the front end.
type fqEntry struct {
	traceIdx int
	readyAt  uint64 // cycle it reaches dispatch (fetch cycle + pipe depth)
	bpCP     branch.Checkpoint
	predOK   bool
}

// inflightFill tracks an outstanding L1D line fill (an MSHR).
type inflightFill struct {
	line uint64
	done uint64
}

// storeRef is an uncommitted store visible to load forwarding.
type storeRef struct {
	seq  uint64
	addr uint64
}

// stallCounts are the Result counters an idle cycle charges.
type stallCounts struct{ rob, iq, lsq, fetch uint64 }

// cpu is the complete microarchitectural state of one run: a machine,
// which reset readies for each run it makes.
type cpu struct {
	cfg Config
	tr  trace.Trace

	now uint64

	// Memory hierarchy.
	il1, dl1, l2 cache.Cache
	memc         mem.Controller
	bp           branch.Predictor
	mshrs        []inflightFill
	rpt          [rptSize]rptEntry // stride-prefetch reference prediction table

	// Front end.
	fetchIdx        int
	fetchStallUntil uint64
	fetchBlocked    bool
	lastFetchLine   uint64
	fq              ring[fqEntry]

	// Back end.
	rob      []robEntry
	robHead  int
	robCount int
	iqCount  int
	lsqCount int
	seqGen   uint64
	ready    readyHeap
	stash    []readyItem

	// Unpipelined divider occupancy.
	intDivBusy uint64
	fpDivBusy  uint64

	// Scheduled completions and the count of events ever scheduled.
	events    eventQueue
	scheduled uint64

	// Store queue for forwarding, oldest first.
	storeQ ring[storeRef]

	committed int
	warmup    int    // commits before statistics start
	warmCycle uint64 // cycle at which warmup completed
	res       Result
}

// machines holds the idle machines between runs. Each Run takes its own,
// so concurrent runs never share one, and puts it back once it has
// finished: in steady state a run allocates nothing. A pooled machine
// keeps the largest structures any of its runs needed, so it costs its
// peak run's memory, chiefly the L2 tag store at 9 bytes a line:
// 1.125 MiB for an 8 MB L2 of 64-byte lines, of the 1.3 MiB the paper
// space's largest machine keeps.
var machines = sync.Pool{New: func() any { return new(cpu) }}

// Run simulates the trace to completion on the configured machine and
// returns the run statistics.
func Run(cfg Config, tr trace.Trace) Result {
	cfg.sanitize()
	if len(tr) == 0 {
		return Result{}
	}
	c := machines.Get().(*cpu)
	res := c.simulate(cfg, tr)
	// Not deferred: a run that panics, such as a wedged one, drops its
	// machine, whose state the panic left mid-run.
	machines.Put(c)
	return res
}

// simulate resets c and runs tr on cfg, a sanitized configuration, and
// returns the run statistics. c keeps no reference to tr afterwards.
func (c *cpu) simulate(cfg Config, tr trace.Trace) Result {
	c.reset(cfg, tr)
	c.run()
	// c.warmup now holds the exact commit count at which statistics were
	// reset (commit bursts can overshoot the requested boundary).
	c.res.Instructions = uint64(len(tr) - c.warmup)
	c.res.Cycles = c.now - c.warmCycle
	c.res.IL1Stats = c.il1.Stats
	c.res.DL1Stats = c.dl1.Stats
	c.res.L2Stats = c.l2.Stats
	c.res.BPStats = c.bp.Stats
	c.res.MemStats = c.memc.Stats
	c.tr = nil
	return c.res
}

// reset readies c, new or from the pool, to run tr on cfg. It starts
// from a zeroed cpu and carries over only backing arrays, each resliced
// to this run's size and cleared: the caches' tag stores, the predictor
// tables and the DRAM bank state (each package's Reset), the ROB with
// each slot's dependents array, the front-end and store rings, both
// heaps and the MSHR list. An array grows only when this run needs more
// than the machine holds. The RPT is an array inside cpu, so the zeroed
// value clears it.
func (c *cpu) reset(cfg Config, tr trace.Trace) {
	*c = cpu{
		cfg:           cfg,
		tr:            tr,
		il1:           c.il1,
		dl1:           c.dl1,
		l2:            c.l2,
		memc:          c.memc,
		bp:            c.bp,
		mshrs:         c.mshrs[:0],
		fq:            ring[fqEntry]{buf: zeroed(c.fq.buf, cfg.FetchWidth*(cfg.PipeDepth+2))},
		rob:           slices.Grow(c.rob[:0], cfg.ROBSize)[:cfg.ROBSize],
		ready:         c.ready[:0],
		stash:         c.stash[:0],
		events:        c.events[:0],
		storeQ:        ring[storeRef]{buf: zeroed(c.storeQ.buf, cfg.LSQSize)},
		lastFetchLine: ^uint64(0),
		seqGen:        1,
	}
	c.il1.Reset(cfg.IL1)
	c.dl1.Reset(cfg.DL1)
	c.l2.Reset(cfg.L2)
	c.memc.Reset(cfg.Mem)
	c.bp.Reset(cfg.Branch)
	for i := range c.rob {
		c.rob[i] = robEntry{dependents: c.rob[i].dependents[:0]}
	}
	c.warmup = cfg.WarmupInsts
	if c.warmup >= len(tr) {
		c.warmup = len(tr) / 2
	}
}

// stallLimit is how many cycles the machine may go without a commit
// before the run is declared wedged.
const stallLimit = 1_000_000

// run advances the machine cycle by cycle. A cycle in which no stage
// changes state is idle, and so is every following cycle until the next
// wake-up (see nextWake); run skips those in one step.
func (c *cpu) run() {
	lastProgress := uint64(0)
	lastCommitted := 0
	for c.committed < len(c.tr) {
		c.now++
		before := c.stallCounts()
		fired := c.completions()
		c.commit()
		issued := c.issue()
		dispatched := c.dispatch()
		fetched := c.fetch()

		if c.committed != lastCommitted {
			if lastCommitted < c.warmup && c.committed >= c.warmup {
				c.resetStats()
			}
			lastCommitted = c.committed
			lastProgress = c.now
			continue
		}
		if !fired && !issued && !dispatched && !fetched {
			c.skipIdle(before, lastProgress+stallLimit)
		}
		if c.now-lastProgress > stallLimit {
			panic(fmt.Sprintf("sim: no commit progress for 1M cycles at cycle %d (committed %d/%d, robCount=%d, fetchIdx=%d, blocked=%v)",
				c.now, c.committed, len(c.tr), c.robCount, c.fetchIdx, c.fetchBlocked))
		}
	}
}

func (c *cpu) stallCounts() stallCounts {
	return stallCounts{c.res.ROBStallCycles, c.res.IQStallCycles, c.res.LSQStallCycles, c.res.FetchStallCycles}
}

// skipIdle is called after an idle cycle, whose stall counters went from
// before to their current values. The cycles up to the next wake-up
// would find the same state and charge the same stalls, so skipIdle
// charges them and moves now to the cycle before the wake-up, stopping
// at limit so a wedged machine still panics at the cycle it would have
// ticked to.
func (c *cpu) skipIdle(before stallCounts, limit uint64) {
	to := c.nextWake() - 1
	if to > limit {
		to = limit
	}
	if to <= c.now {
		return
	}
	n := to - c.now
	after := c.stallCounts()
	c.res.ROBStallCycles += n * (after.rob - before.rob)
	c.res.IQStallCycles += n * (after.iq - before.iq)
	c.res.LSQStallCycles += n * (after.lsq - before.lsq)
	c.res.FetchStallCycles += n * (after.fetch - before.fetch)
	c.now = to
}

// nextWake returns the earliest cycle after now at which an idle machine
// can change state, or ^uint64(0) if none is pending: the next
// completion event; the end of an I-cache miss or redirect stall; the
// front-end queue head reaching dispatch; a divider coming free; or an
// outstanding fill releasing its MSHR, which matters because a prefetch
// fill schedules no event.
func (c *cpu) nextWake() uint64 {
	wake := ^uint64(0)
	at := func(t uint64) {
		if t > c.now && t < wake {
			wake = t
		}
	}
	if len(c.events) > 0 {
		at(c.events[0].at)
	}
	at(c.fetchStallUntil)
	if c.fq.n > 0 {
		at(c.fq.at(0).readyAt)
	}
	at(c.intDivBusy)
	at(c.fpDivBusy)
	for _, f := range c.mshrs {
		at(f.done)
	}
	return wake
}

// resetStats clears all statistics at the end of warmup while leaving
// the microarchitectural state (cache contents, predictor tables, DRAM
// rows) warm.
func (c *cpu) resetStats() {
	c.warmup = c.committed // actual boundary, after any commit burst
	c.warmCycle = c.now
	c.res = Result{}
	c.il1.Stats = cache.Stats{}
	c.dl1.Stats = cache.Stats{}
	c.l2.Stats = cache.Stats{}
	c.bp.Stats = branch.Stats{}
	c.memc.Stats = mem.Stats{}
}

// schedule registers a completion event.
func (c *cpu) schedule(at uint64, slot int32, seq uint64) {
	if at <= c.now {
		at = c.now + 1
	}
	c.scheduled++
	order := c.scheduled
	if at-c.now >= farHorizon {
		order |= farBit
	}
	c.events.push(event{at: at, order: order, seq: seq, slot: slot})
}

// completions processes every event due this cycle: instructions finish
// execution, wake their dependents, and branches resolve. It reports
// whether any event fired.
func (c *cpu) completions() bool {
	fired := false
	for len(c.events) > 0 && c.events[0].at <= c.now {
		ev := c.events.pop()
		fired = true
		e := &c.rob[ev.slot]
		if e.seq != ev.seq || e.state != stIssued {
			continue // squashed
		}
		e.state = stDone
		for _, d := range e.dependents {
			de := &c.rob[d.slot]
			if de.seq != d.seq || de.state != stWaiting {
				continue
			}
			de.notReady--
			if de.notReady == 0 {
				c.ready.push(readyItem{seq: de.seq, slot: d.slot})
			}
		}
		e.dependents = e.dependents[:0]
		if e.op == trace.Branch {
			c.resolveBranch(ev.slot)
		}
	}
	return fired
}

// resolveBranch trains the predictor and, on a misprediction, flushes the
// wrong path and redirects fetch.
func (c *cpu) resolveBranch(slot int32) {
	e := &c.rob[slot]
	c.bp.Update(e.pc, e.bpCP, e.taken)
	if e.taken {
		c.bp.UpdateTarget(e.pc, e.addr)
	}
	if e.predOK {
		return
	}
	c.res.Mispredicts++
	c.bp.RecordMispredict()
	c.bp.Restore(e.pc, e.bpCP, e.taken)
	// Trace-driven fetch stops at a mispredicted branch (wrong-path
	// instructions are not in the trace), so the branch is always the
	// youngest instruction in flight: there is nothing to squash beyond
	// the (empty) front-end queue. Assert the invariant rather than
	// carrying dead squash machinery.
	pos := int(slot) - c.robHead
	if pos < 0 {
		pos += len(c.rob)
	}
	if c.robCount != pos+1 || c.fq.n != 0 {
		panic(fmt.Sprintf("sim: wrong-path state at mispredict resolve: robCount=%d pos=%d fq=%d",
			c.robCount, pos, c.fq.n))
	}
	c.fetchIdx = e.traceIdx + 1
	c.fetchBlocked = false
	c.fetchStallUntil = c.now + 1
	c.lastFetchLine = ^uint64(0)
}

// commit retires up to CommitWidth completed instructions in order.
// Stores write the data cache at commit time.
func (c *cpu) commit() {
	for budget := c.cfg.CommitWidth; budget > 0 && c.robCount > 0; budget-- {
		e := &c.rob[c.robHead]
		if e.state != stDone {
			return
		}
		if e.op == trace.Store {
			c.storeCommit(e.addr)
			if c.storeQ.n == 0 || c.storeQ.at(0).seq != e.seq {
				panic("sim: store queue out of sync with commit order")
			}
			c.storeQ.pop()
		}
		if e.op.IsMem() {
			c.lsqCount--
		}
		c.res.Committed[int(e.op)]++
		e.seq = 0
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		c.committed++
	}
}

// storeCommit performs the data-cache write for a retiring store,
// charging any miss and write-back traffic to the L2 and memory system
// without stalling retirement (the write buffer hides the latency; the
// bandwidth contention is what matters).
func (c *cpu) storeCommit(addr uint64) {
	hit, victim, wb := c.dl1.Access(addr, true)
	if wb {
		c.l2Access(c.now, victim, true)
	}
	if !hit {
		c.l2Access(c.now, addr, false)
	}
}

// l2Access performs an L2 lookup at the given cycle and returns the
// cycle at which the requested line is available, going to DRAM on a
// miss. Dirty L2 victims generate write-back traffic to memory.
func (c *cpu) l2Access(at uint64, addr uint64, write bool) uint64 {
	hit, victim, wb := c.l2.Access(addr, write)
	done := at + uint64(c.cfg.L2Lat)
	if !hit {
		done = c.memc.Access(at+uint64(c.cfg.L2Lat), c.l2.LineAddr(addr))
	}
	if wb {
		c.memc.Access(done, victim)
	}
	return done
}

// issue selects up to IssueWidth ready instructions, oldest first,
// subject to functional-unit and MSHR availability. It reports whether
// any instruction issued.
func (c *cpu) issue() bool {
	aluLeft := c.cfg.IntALUs
	mulLeft := c.cfg.IntMults
	fpLeft := c.cfg.FPUnits
	memLeft := c.cfg.MemPorts
	c.stash = c.stash[:0]
	budget := c.cfg.IssueWidth
	for budget > 0 && len(c.ready) > 0 {
		item := c.ready.pop()
		e := &c.rob[item.slot]
		if e.seq != item.seq || e.state != stWaiting {
			continue // squashed or stale
		}
		var done uint64
		issued := false
		switch e.op {
		case trace.IntALU:
			if aluLeft > 0 {
				aluLeft--
				done = c.now + latIntALU
				issued = true
			}
		case trace.Branch:
			if aluLeft > 0 {
				aluLeft--
				done = c.now + latBranch
				issued = true
			}
		case trace.IntMul:
			if mulLeft > 0 {
				mulLeft--
				done = c.now + latIntMul
				issued = true
			}
		case trace.IntDiv:
			if mulLeft > 0 && c.intDivBusy <= c.now {
				mulLeft--
				done = c.now + latIntDiv
				c.intDivBusy = done
				issued = true
			}
		case trace.FPALU:
			if fpLeft > 0 {
				fpLeft--
				done = c.now + latFPALU
				issued = true
			}
		case trace.FPMul:
			if fpLeft > 0 {
				fpLeft--
				done = c.now + latFPMul
				issued = true
			}
		case trace.FPDiv:
			if fpLeft > 0 && c.fpDivBusy <= c.now {
				fpLeft--
				done = c.now + latFPDiv
				c.fpDivBusy = done
				issued = true
			}
		case trace.Store:
			if memLeft > 0 {
				memLeft--
				done = c.now + latStore
				issued = true
			}
		case trace.Load:
			if memLeft > 0 {
				var ok bool
				done, ok = c.loadIssue(e)
				if ok {
					memLeft--
					issued = true
				}
			}
		}
		if !issued {
			c.stash = append(c.stash, item)
			continue
		}
		e.state = stIssued
		c.iqCount--
		c.schedule(done, item.slot, item.seq)
		budget--
	}
	for _, it := range c.stash {
		c.ready.push(it)
	}
	return budget < c.cfg.IssueWidth
}

// loadIssue runs a load through forwarding, the L1D, the MSHRs, and the
// lower hierarchy. ok is false when the load cannot issue this cycle
// (MSHRs exhausted).
func (c *cpu) loadIssue(e *robEntry) (done uint64, ok bool) {
	// Store-to-load forwarding from the youngest older store to the
	// same address.
	for i := c.storeQ.n - 1; i >= 0; i-- {
		s := c.storeQ.at(i)
		if s.seq < e.seq && s.addr == e.addr {
			c.res.LoadForwards++
			return c.now + 1, true
		}
	}
	line := c.dl1.LineAddr(e.addr)
	// Merge with an outstanding fill of the same line: the data is still
	// in flight, so the load waits for it regardless of the tag state.
	active := c.mshrs[:0]
	var merged uint64
	for _, f := range c.mshrs {
		if f.done > c.now {
			active = append(active, f)
			if f.line == line {
				merged = f.done
			}
		}
	}
	c.mshrs = active
	if merged > 0 {
		return merged, true
	}
	// Probe before allocating: the line may only be installed once an
	// MSHR has accepted the miss, otherwise a load retrying after MSHR
	// exhaustion would spuriously hit on its own half-handled miss.
	if c.dl1.Probe(e.addr) {
		c.dl1.Access(e.addr, false) // update LRU and hit statistics
		c.maybePrefetchData(e.pc, e.addr)
		return c.now + uint64(c.cfg.DL1Lat), true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		return 0, false
	}
	_, victim, wb := c.dl1.Access(e.addr, false) // allocate the line
	if wb {
		c.l2Access(c.now, victim, true)
	}
	fill := c.l2Access(c.now+uint64(c.cfg.DL1Lat), e.addr, false)
	c.mshrs = append(c.mshrs, inflightFill{line: line, done: fill})
	c.maybePrefetchData(e.pc, e.addr)
	return fill, true
}

// robSlot returns the ROB slot i entries after the head, for i below
// the ROB's size.
func (c *cpu) robSlot(i int) int32 {
	s := c.robHead + i
	if s >= len(c.rob) {
		s -= len(c.rob)
	}
	return int32(s)
}

// dispatch moves decoded instructions from the front-end queue into the
// ROB, issue queue, and LSQ, resolving their data dependencies. It
// reports whether any instruction dispatched.
func (c *cpu) dispatch() bool {
	budget := c.cfg.FetchWidth
	for ; budget > 0; budget-- {
		if c.fq.n == 0 || c.fq.at(0).readyAt > c.now {
			break
		}
		if c.robCount == len(c.rob) {
			c.res.ROBStallCycles++
			break
		}
		if c.iqCount == c.cfg.IQSize {
			c.res.IQStallCycles++
			break
		}
		f := *c.fq.at(0)
		in := &c.tr[f.traceIdx]
		if in.Op.IsMem() && c.lsqCount == c.cfg.LSQSize {
			c.res.LSQStallCycles++
			break
		}
		c.fq.pop()

		slot := c.robSlot(c.robCount)
		c.seqGen++
		// Field by field: assigning a composite literal copies a whole
		// entry through a temporary.
		e := &c.rob[slot]
		e.seq = c.seqGen
		e.traceIdx = f.traceIdx
		e.pc = in.PC
		e.addr = in.Addr
		e.op = in.Op
		e.state = stWaiting
		e.notReady = 0
		e.bpCP = f.bpCP
		e.predOK = f.predOK
		e.taken = in.Taken
		e.dependents = e.dependents[:0]
		headTraceIdx := f.traceIdx - c.robCount // oldest in-flight trace index
		if c.robCount > 0 {
			headTraceIdx = c.rob[c.robHead].traceIdx
		}
		link := func(dist int32) {
			if dist <= 0 {
				return
			}
			prodIdx := f.traceIdx - int(dist)
			if prodIdx < headTraceIdx {
				return // producer already committed
			}
			p := &c.rob[c.robSlot(prodIdx-headTraceIdx)]
			if p.state == stDone {
				return
			}
			p.dependents = append(p.dependents, depRef{slot: slot, seq: e.seq})
			e.notReady++
		}
		link(in.Dep1)
		link(in.Dep2)

		c.robCount++
		c.iqCount++
		if in.Op.IsMem() {
			c.lsqCount++
		}
		if in.Op == trace.Store {
			c.storeQ.push(storeRef{seq: e.seq, addr: e.addr})
		}
		if e.notReady == 0 {
			c.ready.push(readyItem{seq: e.seq, slot: slot})
		}
	}
	return budget < c.cfg.FetchWidth
}

// fetch brings up to FetchWidth instructions into the front-end queue,
// modeling I-cache misses, branch prediction, taken-branch fetch breaks,
// and misprediction stalls. Fetched instructions become dispatchable
// PipeDepth cycles later, which is what makes pipeline depth costly on
// flushes. It reports whether it fetched or touched the I-cache.
func (c *cpu) fetch() bool {
	if c.fetchIdx >= len(c.tr) {
		return false
	}
	if c.fetchBlocked || c.now < c.fetchStallUntil {
		c.res.FetchStallCycles++
		return false
	}
	start := c.fetchIdx
	for budget := c.cfg.FetchWidth; budget > 0; budget-- {
		if c.fq.n == len(c.fq.buf) || c.fetchIdx >= len(c.tr) {
			break
		}
		in := &c.tr[c.fetchIdx]
		line := in.PC &^ uint64(c.il1.LineBytes()-1)
		if line != c.lastFetchLine {
			hit, victim, wb := c.il1.Access(in.PC, false)
			c.lastFetchLine = line
			if wb {
				c.l2Access(c.now, victim, true)
			}
			if !hit {
				c.fetchStallUntil = c.l2Access(c.now, in.PC, false)
				c.maybePrefetchNextLine(in.PC)
				return true
			}
		}
		f := fqEntry{traceIdx: c.fetchIdx, readyAt: c.now + uint64(c.cfg.PipeDepth)}
		if in.Op == trace.Branch {
			predTaken, cp := c.bp.PredictDirection(in.PC)
			f.bpCP = cp
			f.predOK = predTaken == in.Taken
			if in.Taken && f.predOK {
				tgt, ok := c.bp.PredictTarget(in.PC)
				if !ok || tgt != in.Addr {
					f.predOK = false
				}
			}
			c.fq.push(f)
			c.fetchIdx++
			if !f.predOK {
				c.fetchBlocked = true
				return true
			}
			if in.Taken {
				return true // redirect: taken branches end the fetch group
			}
			continue
		}
		c.fq.push(f)
		c.fetchIdx++
	}
	return c.fetchIdx != start
}
