package qp

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// fuzzReader maps fuzz bytes to problem data; reads past the end return 0.
type fuzzReader struct {
	data []byte
	off  int
}

func (f *fuzzReader) next() byte {
	if f.off < len(f.data) {
		b := f.data[f.off]
		f.off++
		return b
	}
	return 0
}

// quarter returns a quarter-integer in [−2, 2]. Products and short sums of
// such values are exact in float64, so right-hand sides built from a start
// point make its active rows exactly tight.
func (f *fuzzReader) quarter() float64 { return float64(int(f.next()%17)-8) / 4 }

// unit returns −1, 0 or 1: constraint-row entries. Integer rows keep the
// working sets' conditioning bounded (an independent integer set has a
// Gram determinant ≥ 1), so the dense and structured solutions can be held
// to 1e-9 relative; quarter-integer rows let nearly parallel pairs through,
// whose huge multipliers amplify both paths' rounding past that.
func (f *fuzzReader) unit() float64 { return float64(int(f.next()%3) - 1) }

// fuzzLSProblem builds a strictly convex constrained least-squares problem
// with a feasible start X0: equality rows [I | R] (independent by
// construction), random −1/0/1 inequality rows active at X0 or not, and derived
// inequality rows — exact duplicates, scaled duplicates, sums of two rows
// and copies of equality rows — that repeat the activity of the rows they
// derive from. Derived rows of active rows are dependent rows active at X0;
// derived rows of inactive rows are dependent rows the line search may hit.
func fuzzLSProblem(fr *fuzzReader) *LSProblem {
	n := 2 + int(fr.next()%7)
	rows := 1 + int(fr.next())%(n+2)
	mEq := int(fr.next()) % min(3, n)
	m := mat.Zeros(rows, n)
	d := make([]float64, rows)
	wq := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, fr.quarter())
		}
		d[i] = 4 * fr.quarter()
		wq[i] = float64(fr.next()%5) / 2
	}
	wr := make([]float64, n)
	for j := range wr {
		wr[j] = 0.25 + float64(fr.next()%8)/4
	}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = fr.quarter()
	}
	l := &LSProblem{M: m, D: d, Wq: wq, Wr: wr, X0: x0}
	if mEq > 0 {
		l.Aeq = mat.Zeros(mEq, n)
		l.Beq = make([]float64, mEq)
		for i := 0; i < mEq; i++ {
			l.Aeq.Set(i, i, 1)
			for j := mEq; j < n; j++ {
				l.Aeq.Set(i, j, fr.unit())
			}
			l.Beq[i] = mat.Dot(l.Aeq.RowView(i), x0)
		}
	}
	var ain [][]float64
	var bin []float64
	base := 1 + int(fr.next())%(n+1)
	for k := 0; k < base; k++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = fr.unit()
		}
		b := mat.Dot(row, x0)
		if fr.next()%3 != 0 {
			b += 0.25 + float64(fr.next()%8)/4
		}
		ain, bin = append(ain, row), append(bin, b)
	}
	for derived := int(fr.next() % 5); derived > 0; derived-- {
		j := int(fr.next()) % base
		row := append([]float64(nil), ain[j]...)
		b := bin[j]
		switch fr.next() % 4 {
		case 1: // scaled duplicate
			mat.ScaleVecInto(row, 2, row)
			b *= 2
		case 2: // sum of two rows
			j2 := int(fr.next()) % base
			for t := range row {
				row[t] += ain[j2][t]
			}
			b += bin[j2]
		case 3: // an equality row as an inequality: active at X0
			if mEq > 0 {
				e := int(fr.next()) % mEq
				row = l.Aeq.Row(e)
				b = l.Beq[e]
			}
		}
		ain, bin = append(ain, row), append(bin, b)
	}
	l.Ain, _ = mat.FromRows(ain)
	l.Bin = bin
	return l
}

// checkKKT verifies the first-order optimality conditions of res for the
// lowered problem p: primal feasibility, active rows tight, stationarity
// Hx + q + Aeqᵀy + Aw_inᵀz = 0 with multipliers recovered by least squares,
// and z ≥ 0 on the active inequalities.
func checkKKT(t *testing.T, p *Problem, res *Result) {
	t.Helper()
	x := res.X
	hx, _ := mat.MulVec(p.H, x)
	grad := mat.AddVec(hx, p.Q)
	scale := 1 + mat.NormInfVec(p.Q) + p.H.NormInf()*mat.NormInfVec(x)
	tol := 1e-7 * scale
	if !feasible(p, x, 1e-9*(1+mat.NormInfVec(x))) {
		t.Fatalf("solution %v infeasible", x)
	}
	var rows [][]float64
	mEq := 0
	if p.Aeq != nil {
		mEq = p.Aeq.Rows()
		for i := 0; i < mEq; i++ {
			rows = append(rows, p.Aeq.Row(i))
		}
	}
	for _, i := range res.Active {
		row := p.Ain.Row(i)
		if s := p.Bin[i] - mat.Dot(row, x); math.Abs(s) > 1e-9*(1+mat.NormInfVec(x)) {
			t.Fatalf("active row %d has slack %g", i, s)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		if r := mat.NormInfVec(grad); r > tol {
			t.Fatalf("unconstrained stationarity residual %g > %g", r, tol)
		}
		return
	}
	at := mat.Zeros(len(x), len(rows))
	for j, r := range rows {
		for i := range x {
			at.Set(i, j, r[i])
		}
	}
	mult, err := mat.LeastSquares(at, mat.ScaleVec(-1, grad))
	if err != nil {
		t.Fatalf("multiplier recovery: %v (working set not independent?)", err)
	}
	recon, _ := mat.MulVec(at, mult)
	if r := mat.NormInfVec(mat.AddVec(grad, recon)); r > tol {
		t.Fatalf("stationarity residual %g > %g", r, tol)
	}
	for k, z := range mult[mEq:] {
		if z < -tol {
			t.Fatalf("active inequality %d has multiplier %g < 0", res.Active[k], z)
		}
	}
}

// sameResult reports whether two solves agree bit for bit.
func sameResult(a, b *Result) bool {
	if len(a.X) != len(b.X) || len(a.Active) != len(b.Active) ||
		a.Iterations != b.Iterations || math.Float64bits(a.Obj) != math.Float64bits(b.Obj) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	for i := range a.Active {
		if a.Active[i] != b.Active[i] {
			return false
		}
	}
	return true
}

// FuzzQP holds the active-set solver to its contracts on random strictly
// convex QPs with duplicated and dependent rows: the KKT conditions at the
// solution; a warm dense Workspace (re-solving the structure with fresh
// linear terms, then replaying the first) bit-identical to nil-workspace
// solves; and the structured LSForm equal to the dense one to 1e-9
// relative.
func FuzzQP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Add([]byte("\x06\x07\x02 duplicated and dependent rows active at the start \x03\x04\x00\x01\x02\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzLSProblem(&fuzzReader{data: data})
		p, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveLS(l)
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		checkKKT(t, p, cold)

		// Warm dense workspace against nil-workspace solves, with the
		// residual varied so the working set moves between solves.
		form, err := NewLSForm(l.M, l.Wq, l.Wr)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		d0 := l.D
		d1 := make([]float64, len(d0))
		for i, v := range d0 {
			d1[i] = v*-0.5 + float64(i%3)
		}
		for trial, d := range [][]float64{d0, d1, d0} {
			lt := *l
			lt.D = d
			want, err := SolveLS(&lt)
			if err != nil {
				t.Fatalf("trial %d cold: %v", trial, err)
			}
			got, err := SolveLSWith(&lt, form, ws)
			if err != nil {
				t.Fatalf("trial %d warm: %v", trial, err)
			}
			if !sameResult(got, want) {
				t.Fatalf("trial %d: warm workspace %+v differs from cold %+v", trial, got, want)
			}
		}

		// Structured form against the dense solution.
		sform, err := NewStructuredLSForm(l.M, l.Wq, l.Wr)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := SolveLSWith(l, sform, NewWorkspace())
		if err != nil {
			t.Fatalf("structured solve: %v", err)
		}
		tol := 1e-9 * (1 + mat.NormInfVec(cold.X))
		for i := range cold.X {
			if d := math.Abs(sres.X[i] - cold.X[i]); d > tol {
				t.Fatalf("X[%d]: structured %v dense %v (|Δ| %g > %g)", i, sres.X[i], cold.X[i], d, tol)
			}
		}
	})
}

// TestDuplicateRowHitByLineSearch pins the case the once-per-solve prune
// relies on: a duplicated inequality pair, inactive at X0, that the line
// search reaches. Both rows block at the same step; only the first enters,
// and the twin never blocks again (its a·dir is the entering row's, 0 on
// the new working set), so the solve needs no second prune and matches the
// de-duplicated problem.
func TestDuplicateRowHitByLineSearch(t *testing.T) {
	for _, scale := range []float64{1, 2} {
		h := mat.Scale(2, mat.Identity(3))
		q := []float64{-6, -6, -2}
		aeq := mat.MustNew(1, 3, []float64{0, 0, 1})
		dedup := &Problem{
			H: h, Q: q,
			Aeq: aeq, Beq: []float64{0.5},
			Ain: mat.MustNew(2, 3, []float64{
				1, 1, 0,
				-1, 0, 0,
			}),
			Bin: []float64{2, 0},
			X0:  []float64{0, 0, 0.5},
		}
		dup := *dedup
		dup.Ain = mat.MustNew(3, 3, []float64{
			1, 1, 0,
			-1, 0, 0,
			scale, scale, 0,
		})
		dup.Bin = []float64{2, 0, 2 * scale}
		want := solveOK(t, dedup)
		got := solveOK(t, &dup)
		for i := range want.X {
			if d := math.Abs(got.X[i] - want.X[i]); d > 1e-12 {
				t.Fatalf("scale %g: X[%d] = %v, de-duplicated %v", scale, i, got.X[i], want.X[i])
			}
		}
		if len(got.Active) != 1 || got.Active[0] != 0 {
			t.Fatalf("scale %g: active set %v, want [0]", scale, got.Active)
		}
		checkKKT(t, &dup, got)
	}
}
