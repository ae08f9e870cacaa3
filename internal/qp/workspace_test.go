package qp

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/obs"
)

// workspaceFixture builds an SPD Hessian with one equality (Σx = b) and box
// inequalities — the same constraint structure across solves, as the
// Workspace contract requires.
func workspaceFixture(r *rand.Rand, n int) (h *mat.Dense, aeq, ain *mat.Dense) {
	m := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	mt, _ := mat.Mul(m.T(), m)
	h, _ = mat.Add(mt, mat.Identity(n))
	aeq = mat.Zeros(1, n)
	for j := 0; j < n; j++ {
		aeq.Set(0, j, 1)
	}
	ain = mat.Zeros(2*n, n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		ain.Set(n+i, i, -1)
	}
	return h, aeq, ain
}

// TestSolveWithWorkspaceBitIdentical re-solves one problem structure with
// fresh right-hand sides, linear terms and starts, sharing a Workspace —
// exactly the MPC's fast-loop pattern — and requires every solution to
// match the cold Solve bit for bit.
func TestSolveWithWorkspaceBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 6
	h, aeq, ain := workspaceFixture(r, n)
	ws := NewWorkspace()
	for trial := 0; trial < 25; trial++ {
		q := make([]float64, n)
		for i := range q {
			q[i] = 3 * r.NormFloat64()
		}
		// Vary the box radius and the equality level so the active set
		// changes from solve to solve (exercising the prune/Schur caches on
		// differing working sets), keeping x0 = b/n · 1 feasible.
		radius := 1.0 + r.Float64()
		b := (2*r.Float64() - 1) * radius * float64(n) / 2
		bin := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			bin[i] = radius
			bin[n+i] = radius
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = b / float64(n)
		}
		p := &Problem{H: h, Q: q, Aeq: aeq, Beq: []float64{b}, Ain: ain, Bin: bin, X0: x0}
		cold, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		warm, err := SolveWith(p, ws)
		if err != nil {
			t.Fatalf("trial %d: SolveWith: %v", trial, err)
		}
		for i := range cold.X {
			if cold.X[i] != warm.X[i] {
				t.Fatalf("trial %d: X[%d] cold %v != warm %v", trial, i, cold.X[i], warm.X[i])
			}
		}
		if cold.Obj != warm.Obj || cold.Iterations != warm.Iterations {
			t.Fatalf("trial %d: obj/iters diverged: cold (%v, %d) warm (%v, %d)",
				trial, cold.Obj, cold.Iterations, warm.Obj, warm.Iterations)
		}
	}
}

// TestSolveLSWithFormBitIdentical checks the cached-Hessian LS path against
// the plain lowering across varying residuals.
func TestSolveLSWithFormBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rows, n := 10, 5
	m := mat.Zeros(rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	wq := make([]float64, rows)
	for i := range wq {
		wq[i] = 0.5 + r.Float64()
	}
	wr := make([]float64, n)
	for i := range wr {
		wr[i] = 0.1 + r.Float64()
	}
	ain := mat.Zeros(2*n, n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 1.5
		ain.Set(n+i, i, -1)
		bin[n+i] = 1.5
	}
	form, err := NewLSForm(m, wq, wr)
	if err != nil {
		t.Fatalf("NewLSForm: %v", err)
	}
	ws := NewWorkspace()
	for trial := 0; trial < 15; trial++ {
		d := make([]float64, rows)
		for i := range d {
			d[i] = 2 * r.NormFloat64()
		}
		l := &LSProblem{M: m, D: d, Wq: wq, Wr: wr, Ain: ain, Bin: bin, X0: make([]float64, n)}
		cold, err := SolveLS(l)
		if err != nil {
			t.Fatalf("trial %d: SolveLS: %v", trial, err)
		}
		warm, err := SolveLSWith(l, form, ws)
		if err != nil {
			t.Fatalf("trial %d: SolveLSWith: %v", trial, err)
		}
		for i := range cold.X {
			if cold.X[i] != warm.X[i] {
				t.Fatalf("trial %d: X[%d] cold %v != warm %v", trial, i, cold.X[i], warm.X[i])
			}
		}
	}
}

// TestSolveLSWithRejectsForeignForm pins the design-matrix identity check.
func TestSolveLSWithRejectsForeignForm(t *testing.T) {
	m1 := mat.Identity(3)
	m2 := mat.Identity(3)
	form, err := NewLSForm(m1, nil, []float64{1, 1, 1})
	if err != nil {
		t.Fatalf("NewLSForm: %v", err)
	}
	l := &LSProblem{M: m2, D: []float64{1, 2, 3}, Wr: []float64{1, 1, 1}}
	if _, err := SolveLSWith(l, form, nil); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("foreign form accepted: err = %v", err)
	}
}

// TestStartFeasibleDecidesPhase1 pins StartFeasible as the predicate
// SolveWith applies to X0: a start it accepts never reaches phase-1, one it
// rejects always does, and a nil X0 always does — each phase-1 run counted
// once on Instruments.Phase1.
func TestStartFeasibleDecidesPhase1(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 5
	_, aeq, ain := workspaceFixture(r, n)
	m := mat.Identity(n)
	phase1 := obs.NewRegistry().Counter("phase1", "")
	ws := NewWorkspace()
	ws.SetInstruments(Instruments{Phase1: phase1})
	bin := make([]float64, 2*n)
	for i := range bin {
		bin[i] = 1
	}
	ls := LSProblem{M: m, D: make([]float64, n), Wr: make([]float64, n), Aeq: aeq, Beq: []float64{1}, Ain: ain, Bin: bin}
	form, err := NewLSForm(m, nil, ls.Wr)
	if err != nil {
		t.Fatal(err)
	}
	starts := [][]float64{
		{0.2, 0.2, 0.2, 0.2, 0.2},          // feasible
		{0.2, 0.2, 0.2, 0.2, 0.2 + 0.5e-7}, // residual inside featol
		{0.2, 0.2, 0.2, 0.2, 0.2 + 2e-7},   // residual just outside featol
		{1.5, -0.5, 0, 0, 0},               // box violated
		nil,                                // no start: phase-1
	}
	want := uint64(0)
	for i, x0 := range starts {
		for j := range ls.D {
			ls.D[j] = r.NormFloat64()
		}
		ls.X0 = x0
		if x0 == nil || !ws.StartFeasible(&ls, x0) {
			want++
		}
		if _, err := SolveLSWith(&ls, form, ws); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		if got := phase1.Value(); got != want {
			t.Fatalf("start %d: phase-1 runs = %d, want %d", i, got, want)
		}
	}
	if want != 3 {
		t.Fatalf("fixture exercised %d phase-1 runs, want 3", want)
	}
}
