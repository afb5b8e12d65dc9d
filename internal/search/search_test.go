package search

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"predperf/internal/core"
	"predperf/internal/design"
)

// truth is a known response whose minimum over the grid we can compute
// directly.
func truth(c design.Config) float64 {
	return 1 +
		0.4*float64(c.PipeDepth)/24 +
		20/float64(c.ROBSize) +
		1.2*math.Exp(-float64(c.L2SizeKB)/1200)*float64(c.L2Lat)/20 +
		0.1*float64(c.DL1Lat)
}

// slightly biased model: truth plus a small smooth perturbation, so the
// model ranking is imperfect but close.
type biasedModel struct{}

func (biasedModel) PredictConfig(c design.Config) float64 {
	return truth(c) * (1 + 0.02*math.Sin(float64(c.ROBSize)))
}

func TestMinimizeFindsNearOptimal(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	res, err := Minimize(biasedModel{}, ev, Options{GridLevels: 3, Shortlist: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive truth minimum over the same grid.
	best := math.Inf(1)
	for _, cfg := range EnumerateGrid(nil, 3) {
		if v := truth(cfg); v < best {
			best = v
		}
	}
	if res.BestValue > best*1.02 {
		t.Fatalf("search best %v, exhaustive best %v", res.BestValue, best)
	}
	if res.Verified != 6 {
		t.Fatalf("verified %d, want 6", res.Verified)
	}
	if res.Evaluated < 1000 {
		t.Fatalf("evaluated only %d candidates", res.Evaluated)
	}
	// Shortlist sorted by actual.
	for i := 1; i < len(res.Shortlist); i++ {
		if res.Shortlist[i].Actual < res.Shortlist[i-1].Actual {
			t.Fatal("shortlist not sorted by simulated value")
		}
	}
	// Best is the simulated-best of the shortlist.
	if res.BestValue != res.Shortlist[0].Actual {
		t.Fatal("Best disagrees with shortlist head")
	}
}

func TestMinimizeRespectsConstraint(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	res, err := Minimize(biasedModel{}, ev, Options{
		GridLevels: 3,
		Constraint: func(c design.Config) bool { return c.L2SizeKB <= 1024 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Shortlist {
		if c.Config.L2SizeKB > 1024 {
			t.Fatalf("constraint violated: %v", c.Config)
		}
	}
}

func TestMinimizeInfeasible(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	_, err := Minimize(biasedModel{}, ev, Options{
		GridLevels: 2,
		Constraint: func(design.Config) bool { return false },
	})
	if err == nil {
		t.Fatal("expected error when nothing is feasible")
	}
}

// TestMinimizeExplicitCandidates: a candidate offered twice is scored
// twice but shortlisted and verified once.
func TestMinimizeExplicitCandidates(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	cands := []design.Config{
		{PipeDepth: 24, ROBSize: 24, IQSize: 12, LSQSize: 12, L2SizeKB: 256, L2Lat: 20, IL1SizeKB: 8, DL1SizeKB: 8, DL1Lat: 4},
		{PipeDepth: 7, ROBSize: 128, IQSize: 64, LSQSize: 64, L2SizeKB: 8192, L2Lat: 5, IL1SizeKB: 64, DL1SizeKB: 64, DL1Lat: 1},
	}
	res, err := Minimize(biasedModel{}, ev, Options{Candidates: append(cands, cands[1]), Shortlist: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != cands[1] {
		t.Fatalf("best = %v, want the high-end config", res.Best)
	}
	if res.Evaluated != 3 || res.Verified != 2 {
		t.Fatalf("evaluated %d and verified %d, want 3 and 2", res.Evaluated, res.Verified)
	}
}

// TestMinimizeStreamsTheGrid: a grid search scores each configuration
// as the walk produces it. It equals the same search over EnumerateGrid's
// list, and allocates its shortlist, not the grid's 262,144 points.
func TestMinimizeStreamsTheGrid(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	grid, err := Minimize(biasedModel{}, ev, Options{GridLevels: 4})
	if err != nil {
		t.Fatal(err)
	}
	list, err := Minimize(biasedModel{}, ev, Options{Candidates: EnumerateGrid(nil, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, list) {
		t.Fatalf("grid search %+v, search over EnumerateGrid %+v", grid, list)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Minimize(biasedModel{}, ev, Options{GridLevels: 4}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("a grid search allocated %.0f objects, want under 1000", allocs)
	}
}

func TestEnumerateGridDedupes(t *testing.T) {
	cfgs := EnumerateGrid(nil, 3)
	if len(cfgs) == 0 {
		t.Fatal("empty grid")
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[k] = true
	}
	// Sanity: all within the paper ranges.
	for _, c := range cfgs {
		if c.PipeDepth < 7 || c.PipeDepth > 24 || c.ROBSize < 24 || c.ROBSize > 128 {
			t.Fatalf("out-of-range config %v", c)
		}
	}
}

func TestMinimizeNilArgs(t *testing.T) {
	if _, err := Minimize(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for nil model/evaluator")
	}
}

func TestMinimizeDegenerateSpace(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	for _, space := range []*design.Space{
		{}, // empty
		{Params: []design.Param{{Name: "voltage", Low: 0.8, High: 1.2, Levels: 3}}},
	} {
		_, err := Minimize(biasedModel{}, ev, Options{Space: space})
		if err == nil {
			t.Fatalf("space %v: want an error, got nil", space)
		}
		if !strings.Contains(err.Error(), "missing parameter") {
			t.Fatalf("space %v: want a missing-parameter error, got %v", space, err)
		}
	}
}

func TestMinimizeZeroBudget(t *testing.T) {
	ev := core.FuncEvaluator(truth)
	// An explicitly empty candidate list is a zero-budget search: a
	// clear error, not a panic or a fabricated winner.
	if _, err := Minimize(biasedModel{}, ev, Options{Candidates: []design.Config{}}); err == nil {
		t.Fatal("want an error for an empty candidate list")
	}
	// A constraint that rejects everything is equivalent.
	_, err := Minimize(biasedModel{}, ev, Options{
		GridLevels: 2,
		Constraint: func(design.Config) bool { return false },
	})
	if err == nil {
		t.Fatal("want an error when every candidate is infeasible")
	}
	// Nonsense budgets fall back to defaults rather than failing.
	res, err := Minimize(biasedModel{}, ev, Options{GridLevels: -3, Shortlist: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified != 8 {
		t.Fatalf("verified %d, want the default shortlist of 8", res.Verified)
	}
}

func TestEnumerateGridDegenerate(t *testing.T) {
	// gridLevels <= 1 falls back to the default resolution.
	for _, gl := range []int{1, 0, -5} {
		cfgs := EnumerateGrid(nil, gl)
		if len(cfgs) == 0 {
			t.Fatalf("gridLevels=%d: empty grid", gl)
		}
	}
	// A space that cannot Decode enumerates to nothing instead of
	// panicking.
	if cfgs := EnumerateGrid(&design.Space{}, 3); cfgs != nil {
		t.Fatalf("degenerate space enumerated %d configs", len(cfgs))
	}
}

// TestGridPoints pins the raw grid sizes of the paper space that
// /v1/search bounds: grid_levels 5, which examples/dse uses, walks
// 1,000,000 points and 6 walks 2,985,984; a level count that overflows
// is reported, not wrapped.
func TestGridPoints(t *testing.T) {
	for _, tc := range []struct {
		levels, want int
	}{{0, 262_144}, {3, 19_683}, {4, 262_144}, {5, 1_000_000}, {6, 2_985_984}} {
		if n, ok := GridPoints(nil, tc.levels); !ok || n != tc.want {
			t.Errorf("GridPoints(paper, %d) = %d, %v; want %d", tc.levels, n, ok, tc.want)
		}
	}
	if n, ok := GridPoints(nil, 1<<62); ok {
		t.Errorf("GridPoints(paper, 2^62) = %d, want an overflow", n)
	}
	if n, _ := GridPoints(nil, 3); len(EnumerateGrid(nil, 3)) > n {
		t.Errorf("EnumerateGrid(paper, 3) holds more than its %d raw points", n)
	}
}
