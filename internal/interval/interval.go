// Package interval implements a first-order analytical performance model
// in the style of Karkhanis & Smith (ISCA 2004) — the class of
// "theoretical models" the paper's related work contrasts against
// (ref [11]). The model computes a background (ideal) CPI from the
// machine width and the workload's dependency structure, then adds
// penalties for the three miss-event classes: branch mispredictions,
// L1 data misses served by the L2, and L2 misses served by memory, each
// derated by an overlap (memory-level-parallelism) factor.
//
// Event rates come from a fast functional pass over the trace — the
// caches and branch predictor are simulated exactly, but no cycle-level
// pipeline is modeled — so Analyze is an order of magnitude faster than
// sim.Run. The reproduction uses it the way §3 of the paper uses its
// second simulator: to cross-validate the detailed simulator's parameter
// trends against an independently constructed model.
package interval

import (
	"predperf/internal/sim"
	"predperf/internal/sim/branch"
	"predperf/internal/sim/cache"
	"predperf/internal/trace"
)

// Estimate is the analytical model's CPI decomposition.
type Estimate struct {
	CPI float64

	BaseCPI       float64 // dependency- and width-limited steady state
	BranchPenalty float64 // CPI added by mispredictions
	L1MissPenalty float64 // CPI added by L1D misses hitting the L2
	L2MissPenalty float64 // CPI added by L2 misses going to memory
	FetchPenalty  float64 // CPI added by L1I misses

	// Event rates per instruction, from the functional pass.
	MispredictRate float64
	DL1MPI         float64 // L1D misses per instruction
	L2MPI          float64 // L2 misses per instruction
	IL1MPI         float64 // L1I misses per instruction
}

// Analyze runs the functional pass and evaluates the first-order model
// for the machine described by cfg.
func Analyze(tr trace.Trace, cfg sim.Config) Estimate {
	if len(tr) == 0 {
		return Estimate{}
	}
	il1 := cache.New(cfg.IL1)
	dl1 := cache.New(cfg.DL1)
	l2 := cache.New(cfg.L2)
	bp := branch.New(cfg.Branch)

	var (
		il1Miss, dl1Miss, l2Miss uint64
		mispred, branches        uint64
		depSum                   float64
		depCount                 int
		serialLoads              uint64
		loads                    uint64
	)
	lastLine := ^uint64(0)
	isLoad := make([]bool, len(tr))
	for i := range tr {
		isLoad[i] = tr[i].Op == trace.Load
	}
	for i := range tr {
		in := &tr[i]
		// Instruction fetch, one I-cache probe per new line.
		line := in.PC &^ uint64(il1.LineBytes()-1)
		if line != lastLine {
			lastLine = line
			if hit, _, _ := il1.Access(in.PC, false); !hit {
				il1Miss++
				l2Access(l2, in.PC, &l2Miss)
			}
		}
		switch in.Op {
		case trace.Branch:
			branches++
			pred, cp := bp.PredictDirection(in.PC)
			ok := pred == in.Taken
			if ok && in.Taken {
				if tgt, hit := bp.PredictTarget(in.PC); !hit || tgt != in.Addr {
					ok = false
				}
			}
			if !ok {
				mispred++
				bp.Restore(in.PC, cp, in.Taken)
			}
			bp.Update(in.PC, cp, in.Taken)
			if in.Taken {
				bp.UpdateTarget(in.PC, in.Addr)
			}
			lastLine = ^uint64(0) // control transfer breaks the fetch line
		case trace.Load:
			loads++
			if in.Dep1 > 0 && isLoad[i-int(in.Dep1)] {
				serialLoads++
			}
			if hit, _, _ := dl1.Access(in.Addr, false); !hit {
				dl1Miss++
				l2Access(l2, in.Addr, &l2Miss)
			}
		case trace.Store:
			if hit, _, _ := dl1.Access(in.Addr, true); !hit {
				// Write misses allocate but retire from a write buffer;
				// charged as bandwidth, not latency.
				l2Access(l2, in.Addr, &l2Miss)
			}
		}
		if in.Dep1 > 0 {
			depSum += float64(in.Dep1)
			depCount++
		}
		if in.Dep2 > 0 {
			depSum += float64(in.Dep2)
			depCount++
		}
	}
	n := float64(len(tr))

	e := Estimate{
		MispredictRate: float64(mispred) / n,
		DL1MPI:         float64(dl1Miss) / n,
		L2MPI:          float64(l2Miss) / n,
		IL1MPI:         float64(il1Miss) / n,
	}

	// Background CPI: issue width limits throughput; short dependency
	// distances serialize it. A mean producer distance of d in a window
	// limits ILP to roughly d (each instruction waits ~1/d of the time),
	// so base CPI ≈ max(1/W, 1/d̄) with a small constant for FU latency.
	meanDep := 8.0
	if depCount > 0 {
		meanDep = depSum / float64(depCount)
	}
	width := float64(cfg.IssueWidth)
	base := 1.0 / width
	if 1.0/meanDep > base {
		base = 1.0 / meanDep
	}
	base *= 1.35 // execution latencies > 1 cycle stretch the chains
	e.BaseCPI = base

	// Branch misprediction penalty: the front-end refill (pipe depth)
	// plus the resolution drain.
	e.BranchPenalty = e.MispredictRate * (float64(cfg.PipeDepth) + 3)

	// Memory penalties: L1D misses pay the L2 latency; L2 misses pay
	// memory. Both are derated by the memory-level parallelism the
	// window can expose: serialized (pointer-chasing) loads cannot
	// overlap, independent ones largely can.
	serialFrac := 0.3
	if loads > 0 {
		serialFrac = float64(serialLoads) / float64(loads)
	}
	mlp := 1 + (1-serialFrac)*minF(float64(cfg.MSHRs), float64(cfg.ROBSize)/16)
	memLat := float64(cfg.Mem.TCAS+cfg.Mem.TRCD+cfg.Mem.BusCycles) * 0.9
	if memLat == 0 {
		memLat = 110
	}
	e.L1MissPenalty = (e.DL1MPI - e.L2MPI) * float64(cfg.L2Lat) / minF(mlp, 2.5)
	if e.L1MissPenalty < 0 {
		e.L1MissPenalty = 0
	}
	e.L2MissPenalty = e.L2MPI * memLat / mlp
	e.FetchPenalty = e.IL1MPI * float64(cfg.L2Lat) * 0.6

	e.CPI = e.BaseCPI + e.BranchPenalty + e.L1MissPenalty + e.L2MissPenalty + e.FetchPenalty
	return e
}

func l2Access(l2 *cache.Cache, addr uint64, miss *uint64) {
	if hit, _, _ := l2.Access(addr, false); !hit {
		*miss++
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
