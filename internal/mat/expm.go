package mat

import (
	"fmt"
	"math"
)

// padé approximant coefficients for degree-13 expm (Higham 2005).
var pade13 = [...]float64{
	64764752532480000, 32382376266240000, 7771770303897600,
	1187353796428800, 129060195264000, 10559470521600,
	670442572800, 33522128640, 1323241920,
	40840800, 960960, 16380, 182, 1,
}

// thetas are the scaling thresholds for Padé orders 3,5,7,9,13.
var expmThetas = [...]struct {
	deg   int
	theta float64
}{
	{3, 1.495585217958292e-2},
	{5, 2.539398330063230e-1},
	{7, 9.504178996162932e-1},
	{9, 2.097847961257068},
	{13, 5.371920351148152},
}

// Expm computes the matrix exponential e^A using the scaling-and-squaring
// method with Padé approximants (Higham 2005). The input must be square.
func Expm(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: expm of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	if n == 0 {
		return Zeros(0, 0), nil
	}
	norm := a.Norm1()
	// Try low-order Padé without scaling.
	for _, t := range expmThetas[:4] {
		if norm <= t.theta {
			return padeExpm(a, t.deg)
		}
	}
	// Scale A by 2^-s so that the scaled norm fits theta13, apply Padé 13,
	// square s times.
	s := 0
	theta13 := expmThetas[4].theta
	if norm > theta13 {
		s = int(math.Ceil(math.Log2(norm / theta13)))
	}
	scaled := Scale(math.Ldexp(1, -s), a)
	e, err := padeExpm(scaled, 13)
	if err != nil {
		return nil, err
	}
	// Repeated squaring with a double buffer instead of a fresh matrix per
	// square.
	var sq *Dense
	for i := 0; i < s; i++ {
		sq, err = MulInto(sq, e, e)
		if err != nil {
			return nil, err
		}
		e, sq = sq, e
	}
	return e, nil
}

// Norm1 returns the 1-norm (max absolute column sum).
func (m *Dense) Norm1() float64 {
	sums := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			sums[j] += math.Abs(v)
		}
	}
	var max float64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// padeExpm evaluates the [deg/deg] Padé approximant of e^A.
//
// The polynomial accumulations reuse three scratch matrices (s1..s3) instead
// of allocating one matrix per Scale/Add term; the association order of every
// sum is unchanged, so results are bit-identical to the naive evaluation.
func padeExpm(a *Dense, deg int) (*Dense, error) {
	n := a.rows
	ident := Identity(n)
	a2, err := Mul(a, a)
	if err != nil {
		return nil, err
	}
	var s1, s2, s3 *Dense
	var u, v *Dense
	switch deg {
	case 3, 5, 7, 9:
		coeffs := padeCoeffs(deg)
		// Even powers of A: A^0, A^2, A^4, ...
		pows := []*Dense{ident, a2}
		for len(pows) < deg/2+1 {
			next, err := Mul(pows[len(pows)-1], a2)
			if err != nil {
				return nil, err
			}
			pows = append(pows, next)
		}
		uPoly := Zeros(n, n)
		vPoly := Zeros(n, n)
		for k := 0; k <= deg/2; k++ {
			s1 = ScaleInto(s1, coeffs[2*k+1], pows[k])
			uPoly = mustAddInto(uPoly, uPoly, s1)
			s1 = ScaleInto(s1, coeffs[2*k], pows[k])
			vPoly = mustAddInto(vPoly, vPoly, s1)
		}
		u, err = Mul(a, uPoly)
		if err != nil {
			return nil, err
		}
		v = vPoly
	case 13:
		b := pade13
		a4, err := Mul(a2, a2)
		if err != nil {
			return nil, err
		}
		a6, err := Mul(a4, a2)
		if err != nil {
			return nil, err
		}
		// u = A*(A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
		s1 = ScaleInto(s1, b[13], a6)
		s2 = ScaleInto(s2, b[11], a4)
		inner := mustAddInto(nil, s1, s2)
		s1 = ScaleInto(s1, b[9], a2)
		inner = mustAddInto(inner, inner, s1)
		t, err := Mul(a6, inner)
		if err != nil {
			return nil, err
		}
		s1 = ScaleInto(s1, b[7], a6)
		s2 = ScaleInto(s2, b[5], a4)
		s1 = mustAddInto(s1, s1, s2)
		s2 = ScaleInto(s2, b[3], a2)
		s3 = ScaleInto(s3, b[1], ident)
		s2 = mustAddInto(s2, s2, s3)
		s1 = mustAddInto(s1, s1, s2)
		t = mustAddInto(t, t, s1)
		u, err = Mul(a, t)
		if err != nil {
			return nil, err
		}
		// v = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I
		s1 = ScaleInto(s1, b[12], a6)
		s2 = ScaleInto(s2, b[10], a4)
		inner = mustAddInto(inner, s1, s2)
		s1 = ScaleInto(s1, b[8], a2)
		inner = mustAddInto(inner, inner, s1)
		// t is dead here; reuse its storage for v.
		v, err = MulInto(t, a6, inner)
		if err != nil {
			return nil, err
		}
		s1 = ScaleInto(s1, b[6], a6)
		s2 = ScaleInto(s2, b[4], a4)
		s1 = mustAddInto(s1, s1, s2)
		s2 = ScaleInto(s2, b[2], a2)
		s3 = ScaleInto(s3, b[0], ident)
		s2 = mustAddInto(s2, s2, s3)
		s1 = mustAddInto(s1, s1, s2)
		v = mustAddInto(v, v, s1)
	default:
		return nil, fmt.Errorf("mat: unsupported padé degree %d", deg)
	}
	// Solve (v - u) X = (v + u). s1/s2 are dead; reuse for num/den.
	num := mustAddInto(s1, v, u)
	den, err := SubInto(s2, v, u)
	if err != nil {
		return nil, err
	}
	x, err := Solve(den, num)
	if err != nil {
		return nil, fmt.Errorf("mat: expm padé solve: %w", err)
	}
	return x, nil
}

func mustAdd(a, b *Dense) *Dense { return mustAddInto(nil, a, b) }

func mustAddInto(dst, a, b *Dense) *Dense {
	out, err := AddInto(dst, a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// padeCoeffs returns the Padé numerator coefficients for the given degree.
func padeCoeffs(deg int) []float64 {
	switch deg {
	case 3:
		return []float64{120, 60, 12, 1}
	case 5:
		return []float64{30240, 15120, 3360, 420, 30, 1}
	case 7:
		return []float64{17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1}
	case 9:
		return []float64{
			17643225600, 8821612800, 2075673600, 302702400,
			30270240, 2162160, 110880, 3960, 90, 1,
		}
	default:
		panic(fmt.Sprintf("mat: no padé coefficients for degree %d", deg))
	}
}

// Discretize computes the zero-order-hold discretization of the
// continuous-time system ẋ = A x + B u over sampling period ts:
//
//	Φ = e^{A·ts},   G = ∫₀^ts e^{A s} ds · B
//
// using Van Loan's block-matrix method: exp([A B; 0 0]·ts) = [Φ G; 0 I].
// The controller's model is nilpotent and discretizes in closed form; this
// general method is the oracle its tests compare against.
func Discretize(a, b *Dense, ts float64) (phi, g *Dense, err error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("mat: discretize with A %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	if b.rows != a.rows {
		return nil, nil, fmt.Errorf("mat: discretize with B %dx%d, A has %d rows: %w", b.rows, b.cols, a.rows, ErrShape)
	}
	n, m := a.rows, b.cols
	blk := Zeros(n+m, n+m)
	blk.SetBlock(0, 0, Scale(ts, a))
	blk.SetBlock(0, n, Scale(ts, b))
	e, err := Expm(blk)
	if err != nil {
		return nil, nil, err
	}
	return e.Slice(0, n, 0, n), e.Slice(0, n, n, n+m), nil
}
