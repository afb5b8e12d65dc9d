package mat

import "math"

// Cholesky holds the lower-triangular factor L of a symmetric positive-
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// CholFactor computes the Cholesky factorization of the symmetric
// positive-definite matrix a. Only the lower triangle of a is read.
func CholFactor(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("mat: CholFactor of non-square matrix")
	}
	l := New(a.Rows, a.Rows)
	if err := CholFactorTo(l, a); err != nil {
		return nil, err
	}
	return &Cholesky{l: l}, nil
}

// CholFactorTo writes the Cholesky factor L of the symmetric positive-
// definite matrix a into the lower triangle of l, which has a's shape,
// without allocating. Only the lower triangle of a is read, and the
// strict upper triangle of l is neither written nor read by
// CholSolveTo.
func CholFactorTo(l, a *Matrix) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		panic("mat: CholFactorTo shape mismatch")
	}
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrSingular
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.Rows
	x := make([]float64, n)
	CholSolveTo(x, make([]float64, n), c.l, b)
	return x
}

// CholSolveTo solves L·Lᵀ·x = b into x for the factor l CholFactorTo
// wrote, using y for the intermediate vector, without allocating. x, y
// and b each have l.Rows elements; x and y must not share storage with
// each other or with b.
func CholSolveTo(x, y []float64, l *Matrix, b []float64) {
	n := l.Rows
	if len(b) != n || len(x) != n || len(y) != n {
		panic("mat: Cholesky solve length mismatch")
	}
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// RidgeLeastSquares solves min ‖A·x − b‖² + λ‖x‖² via the normal
// equations (AᵀA + λI)·x = Aᵀb. λ must be positive; it is escalated
// geometrically if the regularized normal matrix is still numerically
// indefinite.
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda <= 0 {
		lambda = 1e-10
	}
	ata := a.T().Mul(a)
	atb := a.T().MulVec(b)
	for try := 0; try < 30; try++ {
		reg := ata.Clone()
		for i := 0; i < reg.Rows; i++ {
			reg.Set(i, i, reg.At(i, i)+lambda)
		}
		ch, err := CholFactor(reg)
		if err == nil {
			return ch.Solve(atb), nil
		}
		lambda *= 10
	}
	return nil, ErrSingular
}
