package ctrl

import (
	"testing"

	"repro/internal/idc"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/testenv"
	"repro/internal/workload"
)

// TestMPCStepSteadyStateAllocFree pins the tentpole property at the ctrl
// layer: with the condensed cache warm and the step scratch grown to its
// steady size, MPC.Step performs zero heap allocations.
func TestMPCStepSteadyStateAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	model := newTestModel(t, testPrices6H, 30)
	u0, servers := feasibleStart(t, testPrices6H)
	refPower, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Servers:  servers,
		Demands:  workload.TableI(),
		RefPower: refPower,
	}
	for i := 0; i < 3; i++ { // build condensed cache, grow scratch, warm QP caches
		if _, err := mpc.Step(in); err != nil {
			t.Fatalf("warmup Step: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mpc.Step(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state MPC.Step allocated %v allocs/run, want 0", allocs)
	}
}

// TestMPCStepInstrumentedAllocFree pins the observability contract: with
// live obs instruments attached (the configuration every wired Controller
// runs), steady-state MPC.Step still performs zero heap allocations —
// counters and histograms are pure atomic ops.
func TestMPCStepInstrumentedAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	model := newTestModel(t, testPrices6H, 30)
	u0, servers := feasibleStart(t, testPrices6H)
	refPower, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 6})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	reg := obs.NewRegistry()
	instr := Instruments{
		CacheHits:   reg.Counter("mpc_cache_hits_total", ""),
		CacheMisses: reg.Counter("mpc_cache_misses_total", ""),
		ModelSwaps:  reg.Counter("mpc_model_swaps_total", ""),
		QP: qp.Instruments{
			Iterations:     reg.Counter("qp_iterations_total", ""),
			Factorizations: reg.Counter("qp_factorizations_total", ""),
			FactorReuse:    reg.Counter("qp_factor_reuse_total", ""),
		},
	}
	mpc.SetInstruments(instr)
	in := StepInput{
		Model:    model,
		State:    make([]float64, model.StateDim()),
		PrevU:    u0,
		Servers:  servers,
		Demands:  workload.TableI(),
		RefPower: refPower,
	}
	for i := 0; i < 3; i++ { // build condensed cache, grow scratch, warm QP caches
		if _, err := mpc.Step(in); err != nil {
			t.Fatalf("warmup Step: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mpc.Step(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented steady-state MPC.Step allocated %v allocs/run, want 0", allocs)
	}
	// The instruments actually fired: 3 warmups + 21 AllocsPerRun runs, all
	// cache hits after the first miss, each reusing the QP factorization.
	if v := instr.CacheHits.Value(); v == 0 {
		t.Error("cache-hit counter never fired")
	}
	if v := instr.CacheMisses.Value(); v != 1 {
		t.Errorf("cache misses = %d, want 1", v)
	}
	if v := instr.QP.Iterations.Value(); v == 0 {
		t.Error("QP iteration counter never fired")
	}
	if v := instr.QP.FactorReuse.Value(); v == 0 {
		t.Error("QP factor-reuse counter never fired")
	}
}

// TestMPCStepMovingDemandAllocs pins the tick the fast loop actually runs
// at zero allocations: portal demand moves every step (Table I scaled by
// 0.9 + 0.05·sin), so every step needs a fresh feasible start and sees a
// fresh working set. The warm-start ladder builds the start on grow-only
// scratch instead of calling qp's LP phase-1, and qp's once-per-solve
// dependent-row prune re-orthogonalizes into the storage of the cached
// entries it replaces.
func TestMPCStepMovingDemandAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mpc, in, setDemand := movingDemandRig(t)
	k := 0
	step := func() {
		setDemand(k)
		k++
		out, err := mpc.Step(in)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		in.PrevU = out.U
	}
	for k < 50 {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
		t.Errorf("moving-demand MPC.Step allocated %v allocs/run, want 0", allocs)
	}
}

// TestModelStepAllocatesOnlyResult pins the plant integrator at one
// allocation per call: the returned state vector.
func TestModelStepAllocatesOnlyResult(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	top := idc.PaperTopology()
	model, err := NewFoldedModel(top, testPrices6H, 30)
	if err != nil {
		t.Fatal(err)
	}
	u0, servers := feasibleStart(t, testPrices6H)
	x := make([]float64, model.StateDim())
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := model.Step(x, u0, servers); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Model.Step allocated %v allocs/run, want 1", allocs)
	}
}
