package cluster

import (
	"testing"

	"predperf/internal/sim"
	"predperf/internal/trace"
)

// FuzzSimRun runs every config a worker admits (simulable) through
// sim.Run on a 2,000-instruction mcf trace: each fuzzed field is folded
// into [1, its evalCeilings value], so every input is a config the
// worker would simulate. The run must return: a config that wedges the
// simulator is a bug in the simulator or in evalCeilings.
func FuzzSimRun(f *testing.F) {
	tr, err := trace.Named("mcf", 2000)
	if err != nil {
		f.Fatal(err)
	}
	for _, wc := range []WireConfig{
		// The configs of the worker tests: a typical machine, the
		// ceilings, and the smallest machine admitted.
		{Depth: 12, ROB: 96, IQ: 48, LSQ: 48, L2KB: 2048, L2Lat: 10, IL1KB: 32, DL1KB: 32, DL1Lat: 2},
		evalCeilings,
		{Depth: 1, ROB: 1, IQ: 1, LSQ: 1, L2KB: 1, L2Lat: 1, IL1KB: 1, DL1KB: 1, DL1Lat: 1},
		// The paper space's corners.
		{Depth: 24, ROB: 24, IQ: 6, LSQ: 6, L2KB: 256, L2Lat: 20, IL1KB: 8, DL1KB: 8, DL1Lat: 4},
		{Depth: 7, ROB: 128, IQ: 96, LSQ: 96, L2KB: 8192, L2Lat: 5, IL1KB: 64, DL1KB: 64, DL1Lat: 1},
	} {
		f.Add(wc.Depth, wc.ROB, wc.IQ, wc.LSQ, wc.L2KB, wc.L2Lat, wc.IL1KB, wc.DL1KB, wc.DL1Lat)
	}
	top := evalCeilings.fields()
	fold := func(v, i int) int {
		v %= top[i].v
		if v < 0 {
			v += top[i].v
		}
		if v == 0 {
			return top[i].v
		}
		return v
	}
	f.Fuzz(func(t *testing.T, depth, rob, iq, lsq, l2kb, l2lat, il1kb, dl1kb, dl1lat int) {
		wc := WireConfig{Depth: fold(depth, 0), ROB: fold(rob, 1), IQ: fold(iq, 2), LSQ: fold(lsq, 3),
			L2KB: fold(l2kb, 4), L2Lat: fold(l2lat, 5), IL1KB: fold(il1kb, 6), DL1KB: fold(dl1kb, 7), DL1Lat: fold(dl1lat, 8)}
		if err := simulable(wc); err != nil {
			t.Fatalf("folded config %+v refused: %v", wc, err)
		}
		sim.Run(sim.FromDesign(wc.Config()), tr)
	})
}
