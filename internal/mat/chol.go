package mat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L*Lᵀ. It owns reusable factor storage and moves by
// pointer.
//
//lint:nocopy
type Cholesky struct {
	l *Dense
	n int
}

// FactorCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a. Only the lower triangle of a is read.
// It returns ErrSingular if a is not positive definite to working precision.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor recomputes the factorization in place, reusing c's storage when it
// has capacity. On error c is left in an unusable state and must be
// re-factored before solving. The zero value of Cholesky is ready for Factor.
func (c *Cholesky) Factor(a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	if n >= cholBlockMin {
		// Bit-identical cache-tiled path for large systems (blocked.go). Its
		// zeroing reshape matters: only the lower triangle is written.
		l := ReuseDense(c.l, n, n)
		c.l, c.n = l, n
		return c.factorBlocked(a, l, n)
	}
	c.l, c.n = ReuseDenseUnset(c.l, n, n), n
	return c.factorRows(a, 0)
}

// FactorFrom factors a like Factor, reusing the first p rows of src's
// factor instead of recomputing them. Row i of L depends only on rows ≤ i
// of a's lower triangle, so the result — and the failure column and d of a
// non-positive-definite a — is bit-identical to Factor, provided the
// leading p×p lower triangle of a equals that of the matrix src factored
// (the caller's contract; it is not checked). Only the lower triangle of a
// is read, and only its rows ≥ p.
//
// src may be c itself and may have any order ≥ p. For p = 0, or where
// CholeskyExtends(n) is false, FactorFrom is Factor (which reads every row):
// at blocked-factor sizes the tiled kernel outruns a row-ordered extension.
// c's storage is grow-only, as with Factor.
func (c *Cholesky) FactorFrom(a *Dense, src *Cholesky, p int) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	if p <= 0 || !CholeskyExtends(n) {
		return c.Factor(a)
	}
	if p > n || p > src.n {
		return fmt.Errorf("mat: cholesky prefix %d of order-%d source for order %d: %w", p, src.n, n, ErrShape)
	}
	m := src.n
	sd := src.l.data[:m*m] // still the kept rows if the reshape below grows c
	c.l, c.n = ReuseDenseUnset(c.l, n, n), n
	ld := c.l.data
	// Copy the kept rows into stride n. When src is c the two may share
	// storage: a growing stride moves rows back to front and a shrinking one
	// front to back, so no row is overwritten before it has moved, and each
	// cleared strict-upper tail lies clear of every row still to move. At
	// equal order the rows are already in place.
	if src != c || n != m {
		for t := 0; t < p; t++ {
			i := t
			if n > m {
				i = p - 1 - t
			}
			copy(ld[i*n:i*n+i+1], sd[i*m:i*m+i+1])
			clear(ld[i*n+i+1 : (i+1)*n])
		}
	}
	return c.factorRows(a, p)
}

// factorRows computes rows p…n−1 of L (rows < p already in place), row by
// row, writing every entry of each row including its zero strict-upper
// tail. Each element subtracts its products for k ascending and then takes
// the square root or divides — the chain of the textbook column-ordered
// loop and of factorBlocked — and the first row whose pivot d is not
// positive is the first such column, so the non-PD error names the same
// column and d.
func (c *Cholesky) factorRows(a *Dense, p int) error {
	n := c.n
	ld, ad := c.l.data, a.data
	for i := p; i < n; i++ {
		ri := ld[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			rj := ld[j*n : j*n+j+1]
			s := ad[i*n+j]
			for k := 0; k < j; k++ {
				s -= ri[k] * rj[k]
			}
			ri[j] = s / rj[j]
		}
		d := ad[i*n+i]
		for k := 0; k < i; k++ {
			d -= ri[k] * ri[k]
		}
		if d <= 0 {
			c.n = 0
			return fmt.Errorf("mat: non-positive-definite at column %d (d=%g): %w", i, d, ErrSingular)
		}
		ri[i] = math.Sqrt(d)
		clear(ri[i+1:])
	}
	return nil
}

// CholeskyExtends reports whether FactorFrom on an order-n matrix extends
// the shared prefix, reading only the rows of a after it. When it does not,
// FactorFrom is Factor and reads every row of a's lower triangle.
func CholeskyExtends(n int) bool { return n < cholBlockMin }

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// CondEstimate returns (max diag L / min diag L)², a cheap lower bound on
// the condition number of the factored matrix.
func (c *Cholesky) CondEstimate() float64 {
	if c.n == 0 {
		return 1
	}
	min, max := c.l.data[0], c.l.data[0]
	for i := 1; i < c.n; i++ {
		d := c.l.data[i*c.n+i]
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min <= 0 {
		return math.Inf(1)
	}
	r := max / min
	return r * r
}

// SolveVec solves A*x = b given A = L*Lᵀ.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("mat: cholesky solve rhs length %d, want %d: %w", len(b), c.n, ErrShape)
	}
	y := make([]float64, c.n)
	if err := c.SolveVecInto(y, b); err != nil {
		return nil, err
	}
	return y, nil
}

// SolveVecInto solves A*x = b, writing x into dst. dst must have length n.
// dst MAY alias b: the forward sweep reads b[i] before writing dst[i].
//
// For n >= triSolveSaxpyMin the backward sweep switches to the row-streaming
// (right-looking) order: the dot-product form walks a column of the
// row-major factor with stride n, which at working-set sizes in the
// thousands misses cache and TLB on every element and dominated the warm
// MPC step. The saxpy form reads the factor row by row at full memory
// bandwidth. This reorders each element's accumulation chain, so — unlike
// the blocked factorizations — results above the threshold are NOT
// bit-identical to the naive sweep (see the blocked.go contract carve-out);
// every checksummed paper-scale artifact stays far below it.
func (c *Cholesky) SolveVecInto(dst, b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("mat: cholesky solve rhs length %d, want %d: %w", len(b), c.n, ErrShape)
	}
	if len(dst) != c.n {
		return dstLenErr("cholesky solve", len(dst), c.n)
	}
	n := c.n
	// Forward: L*y = b.
	y := dst
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l.data[i*n+k] * y[k]
		}
		y[i] = s / c.l.data[i*n+i]
	}
	// Back: Lᵀ*x = y.
	if n >= triSolveSaxpyMin {
		for i := n - 1; i >= 0; i-- {
			xi := y[i] / c.l.data[i*n+i]
			y[i] = xi
			//lint:ignore floateq skip-zero fast path is exact: only true zeros skip
			if xi == 0 {
				continue
			}
			row := c.l.data[i*n : i*n+i]
			for k, lik := range row {
				y[k] -= lik * xi
			}
		}
		return nil
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * y[k]
		}
		y[i] = s / c.l.data[i*n+i]
	}
	return nil
}

// Solve solves A*X = B column by column.
func (c *Cholesky) Solve(b *Dense) (*Dense, error) {
	if b.rows != c.n {
		return nil, fmt.Errorf("mat: cholesky solve rhs %dx%d, want %d rows: %w", b.rows, b.cols, c.n, ErrShape)
	}
	out := Zeros(c.n, b.cols)
	col := make([]float64, c.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < c.n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		x, err := c.SolveVec(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < c.n; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out, nil
}
