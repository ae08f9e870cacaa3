package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/testenv"
	"repro/internal/workload"
)

func fleetControllers(t *testing.T, n int) []*Controller {
	t.Helper()
	cs := make([]*Controller, n)
	for i := range cs {
		c, err := New(baseConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cs[i] = c
	}
	return cs
}

// checkStepAllMatchesSerial steps a fleet through StepAll on p and an
// identical fleet one Step at a time, and fails unless every tenant's
// telemetry agrees bit-for-bit step after step, so warm-start state
// evolves identically too.
func checkStepAllMatchesSerial(t *testing.T, p *par.Pool) {
	t.Helper()
	const fleet = 5
	stepped := fleetControllers(t, fleet)
	serial := fleetControllers(t, fleet)
	demands := make([][]float64, fleet)
	for i := range demands {
		demands[i] = workload.TableI()
	}
	tels := make([]*Telemetry, fleet)
	errs := make([]error, fleet)
	for step := 0; step < 6; step++ {
		if err := StepAll(p, stepped, demands, tels, errs); err != nil {
			t.Fatalf("step %d: StepAll: %v", step, err)
		}
		for i := range serial {
			want, err := serial[i].Step(demands[i])
			if err != nil {
				t.Fatalf("step %d: serial Step %d: %v", step, i, err)
			}
			got := tels[i]
			//lint:ignore floateq fleet and serial stepping must agree bit-for-bit
			if got.CostRate != want.CostRate || got.CumulativeCost != want.CumulativeCost {
				t.Fatalf("step %d: tenant %d cost diverged: fleet (%g, %g) vs serial (%g, %g)",
					step, i, got.CostRate, got.CumulativeCost, want.CostRate, want.CumulativeCost)
			}
			for j := range want.U {
				//lint:ignore floateq fleet and serial stepping must agree bit-for-bit
				if got.U[j] != want.U[j] {
					t.Fatalf("step %d: tenant %d U[%d] diverged", step, i, j)
				}
			}
			if got.QPIterations != want.QPIterations {
				t.Fatalf("step %d: tenant %d took %d QP iterations in the fleet, %d serially",
					step, i, got.QPIterations, want.QPIterations)
			}
		}
	}
}

// TestCoreStepAllMatchesSerial pins end-to-end fleet determinism at the
// controller layer: N tenants stepped on the pool emit telemetry
// bit-identical to an identical fleet stepped serially.
func TestCoreStepAllMatchesSerial(t *testing.T) {
	pool := par.NewPool(context.Background(), 3)
	defer pool.Close()
	checkStepAllMatchesSerial(t, pool)
}

// TestCoreStepAllNilPoolMatchesSerial covers the degraded mode: with no
// pool at all StepAll steps the fleet on the calling goroutine, with the
// same results as a plain Step loop.
func TestCoreStepAllNilPoolMatchesSerial(t *testing.T) {
	checkStepAllMatchesSerial(t, nil)
}

func TestCoreStepAllValidation(t *testing.T) {
	cs := fleetControllers(t, 2)
	demands := [][]float64{workload.TableI(), workload.TableI()}
	tels := make([]*Telemetry, 2)
	errs := make([]error, 2)
	if err := StepAll(nil, cs, demands[:1], tels, errs); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short demands: %v", err)
	}
	dup := []*Controller{cs[0], cs[0]}
	if err := StepAll(nil, dup, demands, tels, errs); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "same *Controller") {
		t.Fatalf("duplicate controller: %v", err)
	}
	if err := StepAll(nil, []*Controller{cs[0], nil}, demands, tels, errs); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil controller: %v", err)
	}
}

// TestCoreStepAllShortOutputSlices pins that StepAll rejects telemetry or
// error slots shorter than the fleet before stepping anyone.
func TestCoreStepAllShortOutputSlices(t *testing.T) {
	cs := fleetControllers(t, 2)
	demands := [][]float64{workload.TableI(), workload.TableI()}
	tels := make([]*Telemetry, 2)
	errs := make([]error, 2)
	if err := StepAll(nil, cs, demands, tels[:1], errs); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short telemetry slots: %v", err)
	}
	if err := StepAll(nil, cs, demands, tels, errs[:1]); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short error slots: %v", err)
	}
	for i, c := range cs {
		if c.Allocation() != nil {
			t.Errorf("controller %d stepped on a rejected call", i)
		}
	}
}

// TestCoreStepAllPartialFailure pins that one tenant's bad input fails
// only that shard: the rest of the fleet still advances and the returned
// error is the lowest failing index.
func TestCoreStepAllPartialFailure(t *testing.T) {
	const fleet = 4
	cs := fleetControllers(t, fleet)
	demands := make([][]float64, fleet)
	for i := range demands {
		demands[i] = workload.TableI()
	}
	demands[1] = demands[1][:2] // tenant 1 fails portal-count validation
	pool := par.NewPool(context.Background(), 2)
	defer pool.Close()
	tels := make([]*Telemetry, fleet)
	errs := make([]error, fleet)
	err := StepAll(pool, cs, demands, tels, errs)
	if err == nil || !strings.Contains(err.Error(), "controller 1") {
		t.Fatalf("StepAll error = %v, want failure at tenant 1", err)
	}
	for i := range cs {
		if i == 1 {
			if errs[i] == nil {
				t.Error("tenant 1 did not report its error")
			}
			continue
		}
		if errs[i] != nil || tels[i] == nil {
			t.Errorf("healthy tenant %d: err=%v tel=%v", i, errs[i], tels[i])
		}
	}
}

// TestCoreStepAllFirstErrorDeterministic pins the error contract with
// several failures: every tenant steps, each failure lands in its own
// errs slot, and the returned error is the lowest failing index however
// the pool interleaved the work.
func TestCoreStepAllFirstErrorDeterministic(t *testing.T) {
	const fleet = 6
	cs := fleetControllers(t, fleet)
	demands := make([][]float64, fleet)
	for i := range demands {
		demands[i] = workload.TableI()
	}
	demands[2] = demands[2][:1] // tenants 2 and 4 fail portal-count validation
	demands[4] = demands[4][:1]
	pool := par.NewPool(context.Background(), 4)
	defer pool.Close()
	tels := make([]*Telemetry, fleet)
	errs := make([]error, fleet)
	err := StepAll(pool, cs, demands, tels, errs)
	if err == nil || !strings.Contains(err.Error(), "controller 2") {
		t.Fatalf("StepAll error = %v, want lowest failing index 2", err)
	}
	for i := range cs {
		failed := i == 2 || i == 4
		if (errs[i] != nil) != failed {
			t.Errorf("errs[%d] = %v, want failure=%t", i, errs[i], failed)
		}
		if !failed && tels[i] == nil {
			t.Errorf("healthy tenant %d did not step", i)
		}
	}
}

// TestCoreStepAllDispatchAllocs pins that pooled dispatch adds less than
// one allocation per call on top of the tenants' own Steps: a pooled
// StepAll allocates what a plain Step loop over an identical warmed fleet
// does. AllocsPerRun truncates its mean, so the two may differ by one.
func TestCoreStepAllDispatchAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const fleet = 4
	pool := par.NewPool(context.Background(), fleet)
	defer pool.Close()
	demands := make([][]float64, fleet)
	for i := range demands {
		demands[i] = workload.TableI()
	}
	tels := make([]*Telemetry, fleet)
	errs := make([]error, fleet)
	pooled := fleetControllers(t, fleet)
	looped := fleetControllers(t, fleet)
	stepPooled := func() {
		if err := StepAll(pool, pooled, demands, tels, errs); err != nil {
			t.Fatal(err)
		}
	}
	stepLooped := func() {
		for i, c := range looped {
			if _, err := c.Step(demands[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < 3; k++ { // past the cold first tick, scratch grown
		stepPooled()
		stepLooped()
	}
	poolAllocs := testing.AllocsPerRun(20, stepPooled)
	loopAllocs := testing.AllocsPerRun(20, stepLooped)
	t.Logf("allocs/call: pooled StepAll %v, Step loop %v", poolAllocs, loopAllocs)
	if poolAllocs > loopAllocs+1 {
		t.Errorf("pooled StepAll allocated %v allocs/call, Step loop %v: dispatch adds allocations", poolAllocs, loopAllocs)
	}
}
