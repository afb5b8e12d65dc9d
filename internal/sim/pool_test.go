package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// pinnedCases reads the golden cases, skipping the test when there are
// none: TestGoldenResults owns writing them.
func pinnedCases(t *testing.T) []goldenCase {
	t.Helper()
	cases, err := readGolden(goldenPath)
	if err != nil {
		t.Skipf("no golden results: %v", err)
	}
	return cases
}

// machineSize orders cases by the structures a run sizes, the L2 tag
// store first.
func machineSize(a, b goldenCase) int {
	x, y := a.config(), b.config()
	return cmp.Or(
		cmp.Compare(x.L2.SizeKB, y.L2.SizeKB),
		cmp.Compare(x.DL1.SizeKB, y.DL1.SizeKB),
		cmp.Compare(x.IL1.SizeKB, y.IL1.SizeKB),
		cmp.Compare(x.ROBSize, y.ROBSize),
		cmp.Compare(x.LSQSize, y.LSQSize),
		cmp.Compare(x.PipeDepth, y.PipeDepth),
	)
}

// byTrace groups cases by benchmark, so neighbours share a trace.
func byTrace(a, b goldenCase) int { return strings.Compare(a.Bench, b.Bench) }

// acrossTraces breaks size ties so that neighbours of equal size run
// different traces: every benchmark ran the same design points.
func acrossTraces(a, b goldenCase) int {
	return cmp.Or(
		strings.Compare(a.Design.Key(), b.Design.Key()),
		cmp.Compare(b2i(a.Prefetch), b2i(b.Prefetch)),
		strings.Compare(a.Bench, b.Bench),
	)
}

func (g goldenCase) String() string {
	return fmt.Sprintf("%s %v prefetch=%v", g.Bench, g.Design, g.Prefetch)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reuseOrders are the orders in which the reuse tests run the golden
// cases back to back on one machine: after a case on the same trace or
// on another, on structures that grow or shrink.
var reuseOrders = []struct {
	name string
	cmp  func(a, b goldenCase) int
}{
	{"same trace, growing", func(a, b goldenCase) int { return cmp.Or(byTrace(a, b), machineSize(a, b)) }},
	{"same trace, shrinking", func(a, b goldenCase) int { return cmp.Or(byTrace(a, b), machineSize(b, a)) }},
	{"other trace, growing", func(a, b goldenCase) int { return cmp.Or(machineSize(a, b), acrossTraces(a, b)) }},
	{"other trace, shrinking", func(a, b goldenCase) int { return cmp.Or(machineSize(b, a), acrossTraces(a, b)) }},
}

// runChain runs cases on one new machine in the given order, each on
// config(case), and requires run i to equal want[i] in every field. It
// records in after which cases ran right after a case on the same trace
// and which right after one on another.
func runChain(t *testing.T, name string, order func(a, b goldenCase) int, cases []goldenCase,
	config func(goldenCase) Config, want []Result, after map[bool]map[int]bool) {
	t.Helper()
	idx := make([]int, len(cases))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int { return order(cases[i], cases[j]) })
	c := new(cpu)
	prev := -1
	for _, i := range idx {
		g := cases[i]
		tr, err := g.trace()
		if err != nil {
			t.Fatal(err)
		}
		cfg := config(g)
		cfg.sanitize()
		if diffs := resultDiff(c.simulate(cfg, tr), want[i]); len(diffs) > 0 {
			last := "nothing"
			if prev >= 0 {
				last = cases[prev].String()
			}
			t.Errorf("%s: %s after %s:\n  %s", name, g, last, strings.Join(diffs, "\n  "))
		}
		if c.tr != nil {
			t.Fatalf("%s: the machine still holds the trace of %s after its run", name, g)
		}
		if prev >= 0 {
			after[cases[prev].Bench == g.Bench][i] = true
		}
		prev = i
	}
}

// TestMachineReuseMatchesGolden runs the golden cases back to back on
// one machine, in the four reuse orders, and requires every Result to
// equal its golden value, field by field: each case runs once right
// after another case on the same trace and once right after one on
// another trace, on a machine whose structures grow in two of the
// orders and shrink in the other two.
func TestMachineReuseMatchesGolden(t *testing.T) {
	cases := pinnedCases(t)
	want := make([]Result, len(cases))
	for i, g := range cases {
		want[i] = g.Result
	}
	after := map[bool]map[int]bool{true: {}, false: {}}
	for _, o := range reuseOrders {
		runChain(t, o.name, o.cmp, cases, goldenCase.config, want, after)
	}
	for i, g := range cases {
		if !after[false][i] || (!after[true][i] && g.Bench != farEventsBench) {
			t.Errorf("%s never ran right after a case on the same trace and one on another", g)
		}
	}
}

// TestMachineReuseCold repeats the same-trace reuse orders with no
// warm-up, so statistics count from the first cycle and state a machine
// kept from its last run shows even where a warm-up would retrain it:
// the BTB, the RPT and the DRAM's open rows. Every run must equal the
// same run on a new machine.
func TestMachineReuseCold(t *testing.T) {
	cases := pinnedCases(t)
	cold := func(g goldenCase) Config {
		cfg := g.config()
		cfg.WarmupInsts = 0
		return cfg
	}
	want := make([]Result, len(cases))
	for i, g := range cases {
		tr, err := g.trace()
		if err != nil {
			t.Fatal(err)
		}
		cfg := cold(g)
		cfg.sanitize()
		want[i] = new(cpu).simulate(cfg, tr)
	}
	after := map[bool]map[int]bool{true: {}, false: {}}
	for _, o := range reuseOrders[:2] {
		runChain(t, o.name, o.cmp, cases, cold, want, after)
	}
	// The golden traces seldom leave the stride prefetcher confident, so
	// a streaming trace, run twice, checks that the RPT starts cold.
	cfg := DefaultConfig()
	cfg.Prefetch = Prefetch{DL1Stride: true, Degree: 2}
	cfg.sanitize()
	tr := strideTrace(3000, 64, false)
	c := new(cpu)
	first := c.simulate(cfg, tr)
	if diffs := resultDiff(c.simulate(cfg, tr), first); len(diffs) > 0 {
		t.Errorf("a streaming run after itself:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// TestRunConcurrentMixedCases runs every golden case through Run from
// four goroutines at once, each taking every fourth case, so machines
// pass between goroutines and runs on different traces and sizes
// overlap. Under -race it also checks that concurrent runs never share
// a machine.
func TestRunConcurrentMixedCases(t *testing.T) {
	cases := pinnedCases(t)
	const goroutines = 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cases); i += goroutines {
				g := cases[i]
				tr, err := g.trace()
				if err != nil {
					t.Error(err)
					return
				}
				if diffs := resultDiff(Run(g.config(), tr), g.Result); len(diffs) > 0 {
					t.Errorf("%s:\n  %s", g, strings.Join(diffs, "\n  "))
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunAfterWedge: a run that makes no progress panics, dropping its
// machine mid-run, and the runs after it stay exact.
func TestRunAfterWedge(t *testing.T) {
	cases := pinnedCases(t)
	g := cases[0]
	tr, err := g.trace()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a wedged run did not panic")
			}
		}()
		// An IL1 miss that never returns wedges the front end.
		cfg := g.config()
		cfg.Mem.TCAS = 1 << 40
		Run(cfg, tr)
	}()
	if diffs := resultDiff(Run(g.config(), tr), g.Result); len(diffs) > 0 {
		t.Errorf("after a wedged run:\n  %s", strings.Join(diffs, "\n  "))
	}
}
