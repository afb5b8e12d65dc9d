package main

import (
	"time"

	"predperf/internal/par"
)

// The host reference. build and sim_farm are CPU-bound, and on a shared
// host other tenants slow them by 10–30% for minutes at a time: more than
// a run lasts, so neither longer runs nor a lower quantile of a run's
// operations cancel it. Each of their operations is therefore followed
// by a fixed reference kernel on as many goroutines as the operation
// uses, and the operation's time is reported scaled by refNominalMS over
// the kernel's time beside it. The slowdown the two share cancels; a
// change to the program moves the operation and not the kernel.
//
// The kernel must stay as it is: changing it, its size or refNominalMS
// changes every scaled number.

// refCycles sizes the kernel to about 100 ms on the reference host.
const refCycles = 400_000

// refNominalMS is the kernel's median time on the reference host (a
// 2-CPU shared virtual machine, Intel Xeon) over the baseline runs in
// results/, 101 ms, rounded; so there a scaled time reads like the raw
// one over a long stretch.
const refNominalMS = 100.0

type refEntry struct {
	ready uint64
	dep   int32
	done  bool
}

// refKernel stands in for the simulator's inner loop: each cycle it
// scans a ring of in-flight entries for ones whose latency has elapsed
// and whose producer is done, retires done entries in order, and
// dispatches up to four new ones with pseudo-random latencies and
// producers. Like the simulator it is branchy, integer-only and
// cache-resident; in a recording on the reference host its slowdowns
// tracked the simulator's far better than those of a pointer chase or an
// arithmetic loop (see README.md). It returns the entries completed,
// which is the same on every call.
func refKernel(cycles int) uint64 {
	const size = 128
	ring := make([]refEntry, size)
	x := uint64(88172645463325252)
	head, n := 0, 0
	var done uint64
	for c := uint64(1); c <= uint64(cycles); c++ {
		for i := 0; i < n; i++ {
			e := &ring[(head+i)%size]
			if !e.done && e.ready <= c && (e.dep < 0 || ring[e.dep].done) {
				e.done = true
				done++
			}
		}
		for n > 0 && ring[head].done {
			head = (head + 1) % size
			n--
		}
		for k := 0; k < 4 && n < size; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			idx := (head + n) % size
			dep := int32(-1)
			if n > 0 && x&3 != 0 {
				dep = int32((head + int(x>>8)%n) % size)
			}
			ring[idx] = refEntry{ready: c + (x>>20)%20, dep: dep}
			n++
		}
	}
	return done
}

// refDone holds each goroutine's kernel result, so the work is kept.
var refDone [workers]uint64

// hostRef times one run of the kernel on each of the workload's
// goroutines.
func hostRef() time.Duration {
	t0 := time.Now()
	par.For(workers, workers, func(g int) { refDone[g] = refKernel(refCycles) })
	return time.Since(t0)
}

// passes runs op until d has elapsed, at least atLeast times, and times
// the host reference after each. It returns each op's duration and the
// reference time that followed it.
func passes(d time.Duration, atLeast int, op func(i int) error) (ops, refs []time.Duration, err error) {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < d; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return nil, nil, err
		}
		ops = append(ops, time.Since(t0))
		refs = append(refs, hostRef())
	}
	return ops, refs, nil
}

// refScaledMS is each op's time in ms scaled to the reference host:
// op × refNominalMS ÷ the reference time beside it.
func refScaledMS(ops, refs []time.Duration) []float64 {
	out := make([]float64, len(ops))
	for i := range ops {
		out[i] = refNominalMS * float64(ops[i]) / float64(refs[i])
	}
	return out
}
