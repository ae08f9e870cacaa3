package ctrl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/idc"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/workload"
)

// qpFeasTol is qp's start-feasibility tolerance (featol): the absolute
// residual SolveWith accepts on an X0 before it falls back to phase-1.
const qpFeasTol = 1e-7

// repairCase is one random warm-start repair instance: a synthetic
// topology, a controller whose condensed cache and constraint right-hand
// sides are built for the instance, and the step input they came from.
type repairCase struct {
	top *idc.Topology
	mpc *MPC
	cd  *condensed
	in  StepInput
	// beq/bin are the instance's constraint right-hand sides.
	beq, bin []float64
	// fits reports Σ L ≤ Σ φ, summed in input order.
	fits bool
}

// newRepairCase draws an instance with c portals and n IDCs. Total demand
// is frac·Σφ; U(k−1) is an unrelated nonnegative allocation (often
// infeasible for the new demands) with scattered zero entries and, now and
// then, an all-zero portal row.
func newRepairCase(t testing.TB, c, n int, rng *rand.Rand, frac float64) *repairCase {
	t.Helper()
	top, err := idc.SyntheticTopology(c, n, 5000+15000*rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, n)
	for j := range prices {
		prices[j] = 10 + 70*rng.Float64()
	}
	model, err := NewModel(top, prices, 30)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]int, n)
	for j := range servers {
		total := top.IDC(j).TotalServers
		servers[j] = total/2 + rng.Intn(total/2+1)
	}
	phi, err := top.LatencyRHS(servers)
	if err != nil {
		t.Fatal(err)
	}
	var totalPhi float64
	for _, p := range phi {
		totalPhi += p
	}

	prevU := make([]float64, top.NU())
	zeroRow := -1
	if rng.Intn(3) == 0 {
		zeroRow = rng.Intn(c)
	}
	load := (0.2 + rng.Float64()) * totalPhi / float64(len(prevU))
	for k := range prevU {
		if k%c == zeroRow || rng.Intn(4) == 0 {
			continue
		}
		prevU[k] = 2 * load * rng.Float64()
	}

	demands := make([]float64, c)
	var wsum float64
	for i := range demands {
		demands[i] = rng.Float64()
		wsum += demands[i]
	}
	for i := range demands {
		demands[i] *= frac * totalPhi / wsum
	}

	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 2, PredHorizon: 4, CtrlHorizon: 1 + rng.Intn(3)})
	if err != nil {
		t.Fatal(err)
	}
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    prevU,
		Servers:  servers,
		Demands:  demands,
		RefPower: make([]float64, n),
	}
	cd, err := mpc.condensedFor(model)
	if err != nil {
		t.Fatal(err)
	}
	beq, bin, err := mpc.constraintRHS(cd, in)
	if err != nil {
		t.Fatal(err)
	}
	var totalL, sumPhi float64
	for _, l := range demands {
		totalL += l
	}
	for _, p := range mpc.sc.phi {
		sumPhi += p
	}
	return &repairCase{top: top, mpc: mpc, cd: cd, in: in, beq: beq, bin: bin, fits: totalL <= sumPhi}
}

// repair runs repairStart on the case and returns z and its verdict.
func (rc *repairCase) repair() ([]float64, bool) {
	z := make([]float64, rc.top.NU()*rc.mpc.cfg.CtrlHorizon)
	return z, rc.mpc.repairStart(z, rc.top, rc.in.PrevU, rc.in.Demands, rc.mpc.sc.phi)
}

// checkFeasible verifies Aeq·z = beq and Ain·z ≤ bin to qp's tolerance
// with plain dense products, independently of qp.StartFeasible.
func (rc *repairCase) checkFeasible(t testing.TB, z []float64) {
	t.Helper()
	eq, err := mat.MulVec(rc.cd.aeq, z)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range eq {
		if math.Abs(v-rc.beq[i]) > qpFeasTol {
			t.Fatalf("equality row %d: Aeq·z = %.12g, beq = %.12g", i, v, rc.beq[i])
		}
	}
	in, err := mat.MulVec(rc.cd.ain, z)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		if v > rc.bin[i]+qpFeasTol {
			t.Fatalf("inequality row %d: Ain·z = %.12g > bin = %.12g", i, v, rc.bin[i])
		}
	}
}

// checkRepair is the repair property: a fitting instance yields a feasible
// z, and an overloaded one is declined.
func checkRepair(t testing.TB, rc *repairCase) {
	t.Helper()
	z, ok := rc.repair()
	if !rc.fits {
		if ok {
			t.Fatal("repair accepted an instance with Σ L > Σ φ")
		}
		return
	}
	if !ok {
		t.Fatal("repair declined an instance with Σ L ≤ Σ φ")
	}
	rc.checkFeasible(t, z)
}

// TestRepairStartFeasibleExactlyWhenQPIs is the completeness property of
// the warm-start repair over random synthetic topologies, allocations and
// demands: whenever Σ L ≤ Σ φ the repaired move plan satisfies every
// horizon constraint to qp's tolerance, and otherwise the repair declines.
func TestRepairStartFeasibleExactlyWhenQPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fracs := []float64{0.05, 0.5, 0.9, 0.99, 1, 1.01, 1.3}
	for trial := 0; trial < 140; trial++ {
		c, n := 1+rng.Intn(8), 1+rng.Intn(6)
		frac := fracs[trial%len(fracs)]
		checkRepair(t, newRepairCase(t, c, n, rng, frac))
	}
}

// FuzzWarmStartRepair fuzzes the same property over topology size, seed
// and load fraction; testdata/fuzz/FuzzWarmStartRepair holds the corpus.
func FuzzWarmStartRepair(f *testing.F) {
	f.Add(uint8(5), uint8(3), int64(1), 0.8)
	f.Add(uint8(1), uint8(1), int64(2), 1.0)
	f.Add(uint8(7), uint8(5), int64(3), 1.2)
	f.Fuzz(func(t *testing.T, c, n uint8, seed int64, frac float64) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			t.Skip()
		}
		frac = math.Mod(math.Abs(frac), 2)
		rng := rand.New(rand.NewSource(seed))
		checkRepair(t, newRepairCase(t, 1+int(c%8), 1+int(n%6), rng, frac))
	})
}

// movingDemandRig is the paper-scale setup of the moving-demand tests:
// 6H prices, the feasible LP start, and Table I demand modulated by
// 0.9 + 0.05·sin so the conservation right-hand side changes every step.
func movingDemandRig(t *testing.T) (*MPC, StepInput, func(k int)) {
	t.Helper()
	model, err := NewModel(idc.PaperTopology(), testPrices6H, 30)
	if err != nil {
		t.Fatal(err)
	}
	u0, servers := feasibleStart(t, testPrices6H)
	refPower, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatal(err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		t.Fatal(err)
	}
	table := workload.TableI()
	demands := make([]float64, len(table))
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Servers:  servers,
		Demands:  demands,
		RefPower: refPower,
	}
	setDemand := func(k int) {
		f := 0.9 + 0.05*math.Sin(float64(k)/7)
		for i, d := range table {
			demands[i] = f * d
		}
	}
	return mpc, in, setDemand
}

// TestWarmStartMatchesPhase1Start is the differential check of the start
// ladder: over a moving-demand sequence, every Step's allocation matches
// the solve of the very same problem from X0 = nil (qp's LP phase-1 start)
// to 1e-6 relative — the QP is strictly convex, so only the start point
// may differ. No step may reach phase-1 itself.
func TestWarmStartMatchesPhase1Start(t *testing.T) {
	mpc, in, setDemand := movingDemandRig(t)
	phase1 := obs.NewRegistry().Counter("qp_phase1_solves_total", "")
	mpc.SetInstruments(Instruments{QP: qp.Instruments{Phase1: phase1}})
	prevU := append([]float64(nil), in.PrevU...)
	for k := 0; k < 40; k++ {
		setDemand(k)
		in.PrevU = prevU
		out, err := mpc.Step(in)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		cold := mpc.sc.ls
		cold.X0 = nil
		res, err := qp.SolveLSWith(&cold, mpc.cache.form, nil)
		if err != nil {
			t.Fatalf("step %d: phase-1 solve: %v", k, err)
		}
		scale := mat.NormInfVec(out.U)
		for i, u := range out.U {
			want := prevU[i] + res.X[i]
			if math.Abs(u-want) > 1e-6*scale {
				t.Fatalf("step %d: U[%d] = %.12g, phase-1 start gives %.12g", k, i, u, want)
			}
		}
		prevU = append(prevU[:0], out.U...)
	}
	if v := phase1.Value(); v != 0 {
		t.Errorf("moving demand reached qp phase-1 %d times, want 0", v)
	}
}

// TestWarmStartPassesQPCheck pins the single feasibility predicate: every
// start the ladder hands to qp — the shifted plan under frozen demand, the
// repaired plan under moving demand — passes qp's own start check, so no
// accepted start is silently re-solved by phase-1.
func TestWarmStartPassesQPCheck(t *testing.T) {
	mpc, in, setDemand := movingDemandRig(t)
	for k := 0; k < 30; k++ {
		if k >= 15 { // second half: demand held, the shifted plan takes over
			setDemand(15)
		} else {
			setDemand(k)
		}
		out, err := mpc.Step(in)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		x0 := mpc.sc.ls.X0
		if x0 == nil {
			t.Fatalf("step %d: ladder found no start for a feasible problem", k)
		}
		if !mpc.cache.ws.StartFeasible(&mpc.sc.ls, x0) {
			t.Fatalf("step %d: warm start fails qp's start check", k)
		}
		in.PrevU = out.U
	}
}
