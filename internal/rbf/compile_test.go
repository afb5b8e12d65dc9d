package rbf

import (
	"math/rand"
	"testing"
)

// randomNetwork builds a network with m Gaussian bases over dims
// dimensions, deliberately NOT precomputed, so tests can exercise both
// the slow and cached scalar paths.
func randomNetwork(rng *rand.Rand, m, dims int) *Network {
	n := &Network{}
	for j := 0; j < m; j++ {
		c := make([]float64, dims)
		r := make([]float64, dims)
		for k := range c {
			c[k] = rng.Float64()
			r[k] = 0.05 + rng.Float64()
		}
		n.Bases = append(n.Bases, Basis{Center: c, Radius: r})
		n.Weights = append(n.Weights, rng.NormFloat64())
	}
	return n
}

func randomInputs(rng *rand.Rand, n, dims int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dims)
		for k := range x {
			x[k] = rng.Float64()
		}
		xs[i] = x
	}
	return xs
}

// TestPrecomputeBitIdentical: the cached 1/r² path must reproduce the
// per-call-division path exactly — the hoist is pure performance.
func TestPrecomputeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	slow := randomNetwork(rng, 40, 9)
	fast := &Network{Bases: make([]Basis, len(slow.Bases)), Weights: slow.Weights}
	copy(fast.Bases, slow.Bases)
	fast.Precompute()
	for _, x := range randomInputs(rng, 50, 9) {
		if a, b := slow.Predict(x), fast.Predict(x); a != b {
			t.Fatalf("precomputed Predict = %x, slow path = %x", b, a)
		}
	}
}

// TestCompiledMatchesScalar: the compiled batch evaluator must be
// bit-identical to per-point scalar prediction, across sizes that
// exercise partial tiles, exact tile multiples, and degenerate shapes.
func TestCompiledMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ m, dims, n int }{
		{1, 1, 1},
		{3, 9, 5},
		{40, 9, 1},
		{blockCenters, 9, blockConfigs},         // exactly one tile
		{blockCenters + 7, 9, blockConfigs + 9}, // ragged tail tiles
		{130, 4, 300},                           // multiple tiles both ways
	} {
		net := randomNetwork(rng, shape.m, shape.dims)
		net.Precompute()
		xs := randomInputs(rng, shape.n, shape.dims)
		cm := net.Compile()
		if cm.M() != shape.m || cm.Dims() != shape.dims {
			t.Fatalf("compiled shape = %d×%d, want %d×%d", cm.M(), cm.Dims(), shape.m, shape.dims)
		}
		got := cm.PredictBatch(xs)
		for i, x := range xs {
			want := net.Predict(x)
			if got[i] != want {
				t.Fatalf("shape %+v: PredictBatch[%d] = %x, scalar = %x", shape, i, got[i], want)
			}
			if v := cm.Predict(x); v != want {
				t.Fatalf("shape %+v: Compiled.Predict[%d] = %x, scalar = %x", shape, i, v, want)
			}
		}
	}
}

// TestCompiledWithoutPrecompute: compiling a network whose bases never
// saw Precompute must give the same values (Compile derives 1/r² with
// the identical expression).
func TestCompiledWithoutPrecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := randomNetwork(rng, 25, 6)
	xs := randomInputs(rng, 64, 6)
	got := net.Compile().PredictBatch(xs)
	for i, x := range xs {
		if want := net.Predict(x); got[i] != want {
			t.Fatalf("unprecomputed compile: batch[%d] = %x, scalar = %x", i, got[i], want)
		}
	}
}

// TestPredictAllMatchesPredict: PredictAll now routes through the
// compiled path and must stay bit-identical to per-row Predict.
func TestPredictAllMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := randomNetwork(rng, 30, 9)
	xs := randomInputs(rng, 100, 9)
	all := net.PredictAll(xs)
	for i, x := range xs {
		if want := net.Predict(x); all[i] != want {
			t.Fatalf("PredictAll[%d] = %x, Predict = %x", i, all[i], want)
		}
	}
}

// TestCompiledEmptyAndZero: degenerate networks and empty batches must
// not panic and must agree with the scalar path.
func TestCompiledEmptyAndZero(t *testing.T) {
	empty := &Network{}
	if got := empty.Compile().PredictBatch([][]float64{{0.5}, {0.2}}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty network batch = %v, want zeros", got)
	}
	rng := rand.New(rand.NewSource(5))
	net := randomNetwork(rng, 4, 3)
	if got := net.Compile().PredictBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d values", len(got))
	}
}

// TestDesignMatrixMatchesEval: the shared blocked kernel must fill
// H[i][j] with exactly bases[j].Eval(x[i]).
func TestDesignMatrixMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := randomNetwork(rng, 70, 9)
	net.Precompute()
	xs := randomInputs(rng, 90, 9)
	h := DesignMatrix(net.Bases, xs)
	if h.Rows != len(xs) || h.Cols != len(net.Bases) {
		t.Fatalf("H is %d×%d, want %d×%d", h.Rows, h.Cols, len(xs), len(net.Bases))
	}
	for i, x := range xs {
		for j := range net.Bases {
			if got, want := h.At(i, j), net.Bases[j].Eval(x); got != want {
				t.Fatalf("H[%d][%d] = %x, Eval = %x", i, j, got, want)
			}
		}
	}
}

// TestFitResultPredictBatch: the lazily compiled FitResult path must be
// bit-identical to FitResult.Predict, including under concurrent first
// use (the sync.Once race is exercised by `go test -race`).
func TestFitResultPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fr := &FitResult{Net: randomNetwork(rng, 20, 9).Precompute()}
	xs := randomInputs(rng, 33, 9)
	done := make(chan []float64, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- fr.PredictBatch(xs) }()
	}
	for g := 0; g < 4; g++ {
		got := <-done
		for i, x := range xs {
			if want := fr.Predict(x); got[i] != want {
				t.Fatalf("FitResult.PredictBatch[%d] = %x, Predict = %x", i, got[i], want)
			}
		}
	}
}

// Benchmarks: scalar per-point evaluation (with and without the hoisted
// 1/r²) against the compiled blocked batch pass, at serving-relevant
// batch sizes. The predict workloads of cmd/bench measure the served
// path end to end, coalescer and HTTP included.
func benchmarkNetwork(m int) (*Network, [][]float64) {
	rng := rand.New(rand.NewSource(1))
	net := randomNetwork(rng, m, 9)
	net.Precompute()
	return net, randomInputs(rng, 512, 9)
}

func BenchmarkPredictScalar(b *testing.B) {
	net, xs := benchmarkNetwork(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(xs[i%len(xs)])
	}
}

func BenchmarkPredictScalarNoHoist(b *testing.B) {
	net, xs := benchmarkNetwork(60)
	for i := range net.Bases {
		net.Bases[i].invR2 = nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(xs[i%len(xs)])
	}
}

func BenchmarkPredictBatch512(b *testing.B) {
	net, xs := benchmarkNetwork(60)
	cm := net.Compile()
	out := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.PredictBatchTo(out, xs)
	}
}
