package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/idc"
	"repro/internal/price"
	"repro/internal/sleep"
	"repro/internal/workload"
)

// failingPrices returns an error after a configurable number of calls,
// injecting a price-feed outage mid-run.
type failingPrices struct {
	remaining int
}

var errFeedDown = errors.New("price feed down")

func (f *failingPrices) Price(r price.Region, h int, load float64) (float64, error) {
	if f.remaining <= 0 {
		return 0, fmt.Errorf("query %s: %w", r, errFeedDown)
	}
	f.remaining--
	return 40, nil
}

func TestPriceFeedOutageSurfacesError(t *testing.T) {
	cfg := baseConfig()
	cfg.Prices = &failingPrices{remaining: 2} // dies during the first slow tick
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = c.Step(workload.TableI())
	if !errors.Is(err, errFeedDown) {
		t.Fatalf("Step = %v, want wrapped feed error", err)
	}
}

func TestPriceFeedOutageAfterWarmup(t *testing.T) {
	// Feed survives the first slow tick (3 regions) plus a PowerRates call
	// pattern, then dies on the next slow tick.
	cfg := baseConfig()
	cfg.SlowEvery = 2
	cfg.Prices = &failingPrices{remaining: 3}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Step(workload.TableI()); err != nil {
		t.Fatalf("first step should succeed: %v", err)
	}
	if _, err := c.Step(workload.TableI()); err != nil {
		t.Fatalf("second step (no slow tick): %v", err)
	}
	_, err = c.Step(workload.TableI()) // step 2 → slow tick → failure
	if !errors.Is(err, errFeedDown) {
		t.Fatalf("Step = %v, want wrapped feed error", err)
	}
}

func TestInfeasibleBudgetsFallBackToSoftClamp(t *testing.T) {
	// Budgets below even the standby power of the fleet needed for the
	// demand: the budget-aware LP is infeasible, the controller must fall
	// back to the soft clamp and keep running (budgets become targets).
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.Budgets = []float64{1e6, 1e6, 1e6} // 1 MW each, demand needs ~17 MW
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tel, err := c.Step(workload.TableI())
	if err != nil {
		t.Fatalf("Step with infeasible budgets: %v", err)
	}
	// References are clamped at the budgets even though they're unreachable.
	for j, r := range tel.RefPowerWatts {
		if r > 1e6+1 {
			t.Fatalf("ref[%d] = %g, want clamped to 1 MW", j, r)
		}
	}
	// Demand is still fully served (hard constraint beats soft budget).
	a, err := idc.AllocationFromVector(cfg.Topology, tel.U)
	if err != nil {
		t.Fatalf("AllocationFromVector: %v", err)
	}
	per := a.PerPortal()
	for i, d := range workload.TableI() {
		if math.Abs(per[i]-d) > 1e-2 {
			t.Fatalf("portal %d served %g, want %g", i, per[i], d)
		}
	}
}

func TestSleepGuardsIntegrate(t *testing.T) {
	// Ramp-limited, hysteretic sleep control must not break the loop's
	// feasibility: extra servers only ever expand the latency caps.
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4
	cfg.Sleep = sleep.Config{RampDownLimit: 200, HysteresisFrac: 0.05}
	tels := runScenario(t, cfg, 60)
	top := cfg.Topology
	for _, tel := range tels {
		for j := 0; j < top.N(); j++ {
			if tel.Servers[j] > top.IDC(j).TotalServers {
				t.Fatalf("step %d idc %d: %d servers over fleet", tel.Step, j, tel.Servers[j])
			}
		}
	}
	// Hysteresis keeps counts at or above the bare requirement.
	last := tels[len(tels)-1]
	a, _ := idc.AllocationFromVector(top, last.U)
	per := a.PerIDC()
	for j := 0; j < top.N(); j++ {
		req, err := top.IDC(j).MinServersFor(per[j])
		if err != nil {
			t.Fatalf("MinServersFor: %v", err)
		}
		if last.Servers[j] < req {
			t.Fatalf("idc %d: %d servers below requirement %d", j, last.Servers[j], req)
		}
	}
}

func TestForecastInfeasiblePredictionFallsBack(t *testing.T) {
	// Degenerate forecaster input (constant zero demand then a spike) must
	// never crash the slow tick: unusable predictions fall back to the
	// observed demand.
	cfg := baseConfig()
	cfg.UseForecast = true
	cfg.SlowEvery = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	demands := []float64{0, 0, 0, 0, 0}
	for k := 0; k < 6; k++ {
		if _, err := c.Step(demands); err != nil {
			t.Fatalf("Step %d: %v", k, err)
		}
	}
	demands = workload.TableI()
	for k := 0; k < 6; k++ {
		if _, err := c.Step(demands); err != nil {
			t.Fatalf("spike Step %d: %v", k, err)
		}
	}
}

func TestSetBudgetsDemandResponse(t *testing.T) {
	// Simulate a grid demand-response event: no budgets at first, then the
	// grid asks Minnesota to shed to 9 MW mid-run. The controller must pull
	// Minnesota under the new cap within the transition window.
	cfg := baseConfig()
	cfg.StartHour = 6
	cfg.SlowEvery = 4
	cfg.MPC.SmoothWeight = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	demands := workload.TableI()
	for k := 0; k < 10; k++ {
		if _, err := c.Step(demands); err != nil {
			t.Fatalf("warmup step %d: %v", k, err)
		}
	}
	if err := c.SetBudgets([]float64{0, 9e6, 0}, true); err != nil {
		t.Fatalf("SetBudgets: %v", err)
	}
	if got := c.Budgets(); got[1] != 9e6 {
		t.Fatalf("budget not applied: %v", got)
	}
	var last *Telemetry
	for k := 0; k < 40; k++ {
		tel, err := c.Step(demands)
		if err != nil {
			t.Fatalf("event step %d: %v", k, err)
		}
		last = tel
	}
	if last.PowerWatts[1] > 9e6*1.01 {
		t.Fatalf("minnesota %g W still above the 9 MW event cap", last.PowerWatts[1])
	}
	// Validation paths.
	if err := c.SetBudgets([]float64{1}, false); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short budgets: %v", err)
	}
	if err := c.SetBudgets([]float64{-1, 0, 0}, false); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative budget: %v", err)
	}
}
