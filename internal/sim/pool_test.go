package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"predperf/internal/design"
	"predperf/internal/trace"
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

// TestPooledMachineFootprint: after one mcf run at 30k instructions on
// the paper space's largest machine, the backing arrays the machine
// keeps for its next run total at most 1.4 MiB, most of it the 8 MB
// L2's tag store at 9 bytes a line (1.125 MiB). With 16-byte lines, a
// 40-byte trace record and an 80-byte ROB entry it kept 2.2 MiB. The
// records a run reads and writes per instruction keep their sizes too.
func TestPooledMachineFootprint(t *testing.T) {
	if n := unsafe.Sizeof(trace.Inst{}); n != 32 {
		t.Errorf("trace.Inst is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(robEntry{}); n > 72 {
		t.Errorf("robEntry is %d bytes, want at most 72", n)
	}
	tr, err := trace.Named("mcf", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FromDesign(design.Config{PipeDepth: 24, ROBSize: 128, IQSize: 96, LSQSize: 96,
		L2SizeKB: 8192, L2Lat: 20, IL1SizeKB: 64, DL1SizeKB: 64, DL1Lat: 4})
	cfg.WarmupInsts = len(tr) / 5
	cfg.sanitize()
	c := new(cpu)
	c.simulate(cfg, tr)
	const limit = 14 << 20 / 10 // 1.4 MiB
	got := retainedBytes(reflect.ValueOf(c).Elem())
	t.Logf("the machine keeps %d bytes (%.3f MiB)", got, float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("the machine keeps %.3f MiB of backing arrays, want at most 1.4", float64(got)/(1<<20))
	}
}

// retainedBytes sums the capacity of every slice reachable from v
// through struct fields, arrays and slice elements, up to each slice's
// capacity.
func retainedBytes(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += retainedBytes(v.Field(i))
		}
	case reflect.Array:
		if holdsSlices(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += retainedBytes(v.Index(i))
			}
		}
	case reflect.Slice:
		n += v.Cap() * int(v.Type().Elem().Size())
		if holdsSlices(v.Type().Elem()) {
			all := v.Slice(0, v.Cap())
			for i := 0; i < all.Len(); i++ {
				n += retainedBytes(all.Index(i))
			}
		}
	}
	return n
}

// holdsSlices reports whether a value of type t can reach a slice.
func holdsSlices(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice:
		return true
	case reflect.Array:
		return holdsSlices(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsSlices(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
