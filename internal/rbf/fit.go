package rbf

import (
	"math"

	"predperf/internal/mat"
)

// gram holds the precomputed quantities needed to fit any *subset* of a
// candidate basis set by least squares in O(m³) instead of O(p·m²):
// the full Gram matrix G = HᵀH over all candidates, h = Hᵀy, and yᵀy,
// where H is the p×M design matrix of all M candidate bases evaluated at
// the p sample points. It also holds scratch sized for all M
// candidates, which every subset fit reuses: the sub-Gram matrix, its
// ridged copy, the Cholesky factor and the m-vectors. So a gram serves
// one goroutine at a time.
type gram struct {
	p  int
	g  *mat.Matrix // M×M
	hy []float64   // M
	yy float64

	sub, reg, l       mat.Matrix // m×m views of M×M buffers
	rhs, w, fwd, subW []float64  // M each, used to m
}

// newGram evaluates all candidate bases on the sample — one blocked
// design-matrix pass through the same kernel PredictBatch uses — and
// forms the Gram system.
func newGram(bases []Basis, x [][]float64, y []float64) *gram {
	h := DesignMatrix(bases, x)
	gr := &gram{p: len(x), g: h.T().Mul(h), hy: h.T().MulVec(y)}
	for _, v := range y {
		gr.yy += v * v
	}
	m := len(bases)
	for _, sq := range []*mat.Matrix{&gr.sub, &gr.reg, &gr.l} {
		sq.Data = make([]float64, m*m)
	}
	vecs := make([]float64, 4*m)
	gr.rhs, gr.w, gr.fwd, gr.subW = vecs[:m], vecs[m:2*m], vecs[2*m:3*m], vecs[3*m:]
	return gr
}

// square reshapes sq to m×m over the front of its buffer.
func square(sq *mat.Matrix, m int) *mat.Matrix {
	sq.Rows, sq.Cols, sq.Data = m, m, sq.Data[:m*m]
	return sq
}

// fitSubset solves the least-squares problem restricted to the candidate
// indices in sel, returning the weights and the training SSE. A small
// ridge (escalated on numerical failure) keeps nearly collinear Gaussian
// columns solvable. The weights are the gram's scratch: the next fit
// overwrites them, so a caller that keeps them copies them.
func (gr *gram) fitSubset(sel []int) (w []float64, sse float64, ok bool) {
	m := len(sel)
	if m == 0 {
		return nil, gr.yy, true
	}
	sub, reg, l := square(&gr.sub, m), square(&gr.reg, m), square(&gr.l, m)
	rhs, w, fwd, subW := gr.rhs[:m], gr.w[:m], gr.fwd[:m], gr.subW[:m]
	var trace float64
	for a, ia := range sel {
		rhs[a] = gr.hy[ia]
		for b, ib := range sel {
			sub.Set(a, b, gr.g.At(ia, ib))
		}
		trace += gr.g.At(ia, ia)
	}
	lambda := 1e-10 * (1 + trace/float64(m))
	for try := 0; try < 12; try++ {
		copy(reg.Data, sub.Data)
		for i := 0; i < m; i++ {
			reg.Set(i, i, reg.At(i, i)+lambda)
		}
		if err := mat.CholFactorTo(l, reg); err != nil {
			lambda *= 100
			continue
		}
		mat.CholSolveTo(w, fwd, l, rhs)
		// SSE = yᵀy − 2wᵀh + wᵀGw over the subset.
		sub.MulVecTo(subW, w)
		sse = gr.yy - 2*mat.Dot(w, rhs) + mat.Dot(w, subW)
		if sse < 0 {
			sse = 0
		}
		if !math.IsNaN(sse) && !math.IsInf(sse, 0) {
			return w, sse, true
		}
		lambda *= 100
	}
	return nil, 0, false
}

// aiccOf evaluates the model-selection criterion for a subset. The
// weights are fitSubset's scratch.
func (gr *gram) aiccOf(sel []int) (aicc, sse float64, w []float64, ok bool) {
	w, sse, ok = gr.fitSubset(sel)
	if !ok {
		return math.Inf(1), 0, nil, false
	}
	return AICc(gr.p, len(sel), sse/float64(gr.p)), sse, w, true
}
