package rbf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"predperf/internal/rtree"
)

func TestBasisEvalPeakAtCenter(t *testing.T) {
	b := Basis{Center: []float64{0.3, 0.7}, Radius: []float64{0.5, 0.5}}
	if got := b.Eval([]float64{0.3, 0.7}); got != 1 {
		t.Fatalf("Eval(center) = %v, want 1", got)
	}
	// Response strictly decreases with distance from the center.
	prev := 1.0
	for _, d := range []float64{0.1, 0.2, 0.4, 0.8} {
		v := b.Eval([]float64{0.3 + d, 0.7})
		if v >= prev {
			t.Fatalf("Eval not decreasing at distance %v: %v >= %v", d, v, prev)
		}
		prev = v
	}
}

func TestBasisAnisotropicRadii(t *testing.T) {
	b := Basis{Center: []float64{0.5, 0.5}, Radius: []float64{0.1, 1.0}}
	// Same displacement hurts more along the tight dimension.
	vTight := b.Eval([]float64{0.6, 0.5})
	vLoose := b.Eval([]float64{0.5, 0.6})
	if vTight >= vLoose {
		t.Fatalf("anisotropy violated: tight %v >= loose %v", vTight, vLoose)
	}
	// Eq. 2: exp(-(0.1/0.1)²) = e⁻¹ along the tight axis.
	if math.Abs(vTight-math.Exp(-1)) > 1e-12 {
		t.Fatalf("vTight = %v, want e^-1", vTight)
	}
}

func TestAICcProperties(t *testing.T) {
	// More centers at equal variance must cost more.
	if AICc(100, 10, 0.5) >= AICc(100, 20, 0.5) {
		t.Fatal("AICc not increasing in m")
	}
	// Lower variance at equal m must score better.
	if AICc(100, 10, 0.1) >= AICc(100, 10, 0.5) {
		t.Fatal("AICc not increasing in sigma2")
	}
	// Saturated models are rejected.
	if !math.IsInf(AICc(10, 9, 0.5), 1) || !math.IsInf(AICc(10, 20, 0.5), 1) {
		t.Fatal("AICc must be +Inf when p-m-1 <= 0")
	}
	// Perfect fits do not produce -Inf.
	if math.IsInf(AICc(100, 5, 0), -1) {
		t.Fatal("AICc(-Inf) on zero variance")
	}
}

// sampleGrid builds a 2-D grid sample of f.
func sampleGrid(n int, f func(x, y float64) float64) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) / float64(n-1)
			y := float64(j) / float64(n-1)
			xs = append(xs, []float64{x, y})
			ys = append(ys, f(x, y))
		}
	}
	return
}

func TestFitApproximatesSmoothSurface(t *testing.T) {
	f := func(x, y float64) float64 { return math.Sin(3*x) + y*y }
	xs, ys := sampleGrid(7, f) // 49 points
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Check interpolation error at off-grid points.
	rng := rand.New(rand.NewSource(1))
	var maxErr float64
	for i := 0; i < 100; i++ {
		x, y := rng.Float64(), rng.Float64()
		got := res.Predict([]float64{x, y})
		if e := math.Abs(got - f(x, y)); e > maxErr {
			maxErr = e
		}
	}
	// Response range is ~[0,1.14]; demand max error well under 15%.
	if maxErr > 0.15 {
		t.Fatalf("max prediction error %v too large", maxErr)
	}
}

func TestFitCapturesNonlinearInteraction(t *testing.T) {
	// The motivating example of §1: response curvature from an
	// interaction term that a linear-in-parameters model cannot express.
	f := func(x, y float64) float64 { return 1 + 2*math.Exp(-3*x)*y }
	xs, ys := sampleGrid(7, f)
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sse, tot float64
	mean := 0.0
	for _, v := range ys {
		mean += v
	}
	mean /= float64(len(ys))
	for i, x := range xs {
		d := res.Predict(x) - ys[i]
		sse += d * d
		tot += (ys[i] - mean) * (ys[i] - mean)
	}
	if sse/tot > 0.02 {
		t.Fatalf("R² too low: residual fraction %v", sse/tot)
	}
}

func TestFitSelectsFewerCentersThanHalfSample(t *testing.T) {
	// §4: "the number of RBF centers is typically restricted to much
	// less than half the number of sample points."
	f := func(x, y float64) float64 { return x + y }
	xs, ys := sampleGrid(8, f) // 64 points
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCenters() >= len(xs)/2 {
		t.Fatalf("selected %d centers for %d samples", res.NumCenters(), len(xs))
	}
}

func TestFitDiagnosticsPopulated(t *testing.T) {
	xs, ys := sampleGrid(6, func(x, y float64) float64 { return x*y + 0.5 })
	res, err := Fit(xs, ys, Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PMin != 1 && res.PMin != 2 {
		t.Fatalf("PMin = %d not from grid", res.PMin)
	}
	if res.Alpha != 4 && res.Alpha != 8 {
		t.Fatalf("Alpha = %v not from grid", res.Alpha)
	}
	if math.IsInf(res.AICc, 0) || math.IsNaN(res.AICc) {
		t.Fatalf("AICc = %v", res.AICc)
	}
	if res.Tree == nil || res.Net == nil {
		t.Fatal("missing tree or network")
	}
}

func TestFitEmptySample(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for empty sample")
	}
}

func TestFitConstantResponse(t *testing.T) {
	xs, ys := sampleGrid(4, func(x, y float64) float64 { return 3.25 })
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Predict([]float64{0.33, 0.77})
	if math.Abs(got-3.25) > 0.05 {
		t.Fatalf("constant prediction = %v, want 3.25", got)
	}
}

func TestSelectionBeatsAllLeafCenters(t *testing.T) {
	// AICc subset selection should never be (much) worse than simply
	// using every leaf center — that is its purpose.
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, math.Cos(4*x[0])*x[1]+rng.NormFloat64()*0.05)
	}
	tr := rtree.Build(xs, ys, 2)
	alpha, minR := 6.0, 0.02
	net, aicc, _ := FitTree(tr, xs, ys, alpha, minR)
	// All-nodes model for comparison.
	bases, _ := candidateBases(tr, alpha, minR)
	gr := newGram(bases, xs, ys)
	all := make([]int, len(bases))
	for i := range all {
		all[i] = i
	}
	allAICc, _, _, ok := gr.aiccOf(all)
	if ok && aicc > allAICc+1e-9 {
		t.Fatalf("selected model AICc %v worse than all-centers %v", aicc, allAICc)
	}
	if net.M() >= len(bases) {
		t.Fatalf("selection kept all %d candidates", len(bases))
	}
}

func TestGramSubsetFitMatchesDirectLS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		xs = append(xs, []float64{rng.Float64(), rng.Float64()})
		ys = append(ys, rng.NormFloat64())
	}
	bases := []Basis{
		{Center: []float64{0.2, 0.2}, Radius: []float64{0.5, 0.5}},
		{Center: []float64{0.8, 0.8}, Radius: []float64{0.5, 0.5}},
		{Center: []float64{0.5, 0.5}, Radius: []float64{1, 1}},
	}
	gr := newGram(bases, xs, ys)
	w, sse, ok := gr.fitSubset([]int{0, 1, 2})
	if !ok {
		t.Fatal("fitSubset failed")
	}
	// Recompute SSE directly from predictions.
	var direct float64
	for i, x := range xs {
		pred := 0.0
		for j := range bases {
			pred += w[j] * bases[j].Eval(x)
		}
		d := pred - ys[i]
		direct += d * d
	}
	if math.Abs(direct-sse) > 1e-6*(1+direct) {
		t.Fatalf("gram SSE %v != direct SSE %v", sse, direct)
	}
}

// Property: network predictions are bounded by ‖w‖₁ since each basis has
// range (0,1].
func TestQuickPredictionBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := &Network{}
		var l1 float64
		for j := 0; j < 5; j++ {
			net.Bases = append(net.Bases, Basis{
				Center: []float64{rng.Float64(), rng.Float64()},
				Radius: []float64{0.1 + rng.Float64(), 0.1 + rng.Float64()},
			})
			w := rng.NormFloat64()
			net.Weights = append(net.Weights, w)
			l1 += math.Abs(w)
		}
		for i := 0; i < 20; i++ {
			v := net.Predict([]float64{rng.Float64() * 2, rng.Float64() * 2})
			if math.Abs(v) > l1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fit succeeds and gives finite predictions on random smooth
// targets.
func TestQuickFitFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		var xs [][]float64
		var ys []float64
		for i := 0; i < 36; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			xs = append(xs, x)
			ys = append(ys, a*x[0]+b*x[1]+c*x[0]*x[1])
		}
		res, err := Fit(xs, ys, Options{PMinGrid: []int{2}, AlphaGrid: []float64{5, 9}})
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			v := res.Predict([]float64{rng.Float64(), rng.Float64()})
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictAllAndString(t *testing.T) {
	net := &Network{
		Bases:   []Basis{{Center: []float64{0.5}, Radius: []float64{1}}},
		Weights: []float64{2},
	}
	xs := [][]float64{{0.5}, {0.9}}
	out := net.PredictAll(xs)
	if len(out) != 2 || out[0] != 2 {
		t.Fatalf("PredictAll = %v", out)
	}
	if net.String() != "rbf.Network{m=1}" {
		t.Fatalf("String = %q", net.String())
	}
}

func TestFitTreeAllCentersFitsTraining(t *testing.T) {
	xs, ys := sampleGrid(6, func(x, y float64) float64 { return x + 2*y })
	tr := rtree.Build(xs, ys, 2)
	net, aicc, sse := FitTreeAllCenters(tr, xs, ys, 7, 0.02)
	if net.M() == 0 || math.IsInf(aicc, 0) && sse == 0 {
		t.Fatalf("all-centers fit failed: m=%d aicc=%v sse=%v", net.M(), aicc, sse)
	}
	// All-centers must fit training data at least as tightly as the
	// selected subset (more parameters, same family).
	_, _, selSSE := FitTree(tr, xs, ys, 7, 0.02)
	if sse > selSSE+1e-9 {
		t.Fatalf("all-centers SSE %v above selected-subset SSE %v", sse, selSSE)
	}
	// Candidate cap: never more bases than p-2.
	if net.M() > len(xs)-2 {
		t.Fatalf("all-centers kept %d bases for %d points", net.M(), len(xs))
	}
}

func TestFitTreeGlobalRadiusPicksFromGrid(t *testing.T) {
	xs, ys := sampleGrid(6, func(x, y float64) float64 { return math.Sin(3*x) + y })
	tr := rtree.Build(xs, ys, 2)
	net, aicc, _ := FitTreeGlobalRadius(tr, xs, ys, 0.5, 1)
	if net.M() == 0 || math.IsInf(aicc, 1) {
		t.Fatalf("global-radius fit failed: m=%d aicc=%v", net.M(), aicc)
	}
	// All radii identical and isotropic.
	r0 := net.Bases[0].Radius[0]
	for _, b := range net.Bases {
		for _, r := range b.Radius {
			if r != r0 {
				t.Fatalf("radius %v != %v: not global", r, r0)
			}
		}
	}
}

func TestForwardSelectionCompetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, math.Sin(4*x[0])+x[1])
	}
	tr := rtree.Build(xs, ys, 2)
	fwdNet, fwdAICc, _ := FitTreeForwardSelection(tr, xs, ys, 7, 0.02)
	_, treeAICc, _ := FitTree(tr, xs, ys, 7, 0.02)
	if fwdNet.M() == 0 || math.IsInf(fwdAICc, 1) {
		t.Fatalf("forward selection failed: m=%d", fwdNet.M())
	}
	// Orr's result, reproduced: the tree-ordered strategy finds a model
	// with a better (lower) criterion than plain greedy forward
	// selection, which stalls in local minima on these candidate sets.
	if treeAICc > fwdAICc {
		t.Fatalf("tree-ordered AICc %v worse than forward %v", treeAICc, fwdAICc)
	}
	if fwdNet.M() >= len(xs) {
		t.Fatalf("forward selection kept %d bases", fwdNet.M())
	}
}

func TestFitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The grid search must select the same (p_min, α) cell with the same
	// weights no matter how many goroutines score the grid.
	rng := rand.New(rand.NewSource(8))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 70; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, 1+math.Exp(-2*x[0])*x[1]+0.3*x[2])
	}
	grid := Options{PMinGrid: []int{1, 2, 3}, AlphaGrid: []float64{3, 5, 7, 9}}
	grid.Workers = 1
	serial, err := Fit(xs, ys, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 12} {
		grid.Workers = workers
		got, err := Fit(xs, ys, grid)
		if err != nil {
			t.Fatal(err)
		}
		if got.PMin != serial.PMin || got.Alpha != serial.Alpha {
			t.Fatalf("workers=%d selected (%d, %v), serial selected (%d, %v)",
				workers, got.PMin, got.Alpha, serial.PMin, serial.Alpha)
		}
		if got.AICc != serial.AICc || got.SSE != serial.SSE {
			t.Fatalf("workers=%d criterion (%v, %v) != serial (%v, %v)",
				workers, got.AICc, got.SSE, serial.AICc, serial.SSE)
		}
		if got.Net.M() != serial.Net.M() {
			t.Fatalf("workers=%d kept %d centers, serial %d", workers, got.Net.M(), serial.Net.M())
		}
		for i := range serial.Net.Weights {
			if got.Net.Weights[i] != serial.Net.Weights[i] {
				t.Fatalf("workers=%d weight %d differs: %v vs %v",
					workers, i, got.Net.Weights[i], serial.Net.Weights[i])
			}
		}
	}
}

// TestFitTreeAllocsIndependentOfTrials pins the allocations of subset
// selection: past building the candidates and their Gram system,
// FitTree allocates a fixed number of times however many trial subsets
// it fits, because every trial reuses the gram's scratch and one index
// slice. Tree-ordered selection tries up to seven subsets per internal
// node, so one allocation per trial would exceed the bound many times.
func TestFitTreeAllocsIndependentOfTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, math.Sin(3*x[0])+x[1]*x[2])
	}
	tr := rtree.Build(xs, ys, 2)
	const alpha, minR = 6.0, 0.02
	internal := 0
	for _, n := range tr.Nodes() {
		if !n.Leaf() {
			internal++
		}
	}
	const bound = 48
	if trials := 7 * internal; trials < 4*bound {
		t.Fatalf("%d internal nodes give at most %d trials, too few to tell per-trial allocations from the bound %d", internal, trials, bound)
	}
	setup := testing.AllocsPerRun(10, func() {
		bases, _ := candidateBases(tr, alpha, minR)
		newGram(bases, xs, ys)
	})
	fit := testing.AllocsPerRun(10, func() { FitTree(tr, xs, ys, alpha, minR) })
	t.Logf("%d internal nodes; setup %v allocations, FitTree %v", internal, setup, fit)
	if extra := fit - setup; extra > bound {
		t.Fatalf("FitTree allocates %v times past its setup's %v, want at most %d whatever the trial count", extra, setup, bound)
	}
}
