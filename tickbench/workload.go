package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/idc"
	"repro/internal/par"
	"repro/internal/price"
	"repro/internal/workload"
)

// Simulated clock shared by every workload: Ts = 30 s fast ticks, hourly
// price ticks, and a demand-response (DR) schedule that tightens one IDC's
// budget at :20 and restores it at :40 of every hour.
const (
	ts           = 30.0
	ticksPerHour = 120
	ticksPerDay  = 24 * ticksPerHour
	drTighten    = 40 // tick within the hour of the :20 event
	drRestore    = 80 // tick within the hour of the :40 event
	drFactor     = 0.9
)

// paperBudgets are the §V.C per-IDC budgets in watts (5.13/10.26/4.275 MW).
var paperBudgets = []float64{5.13e6, 10.26e6, 4.275e6}

// paperMPC is the MPC configuration of the paper's experiments: default
// horizons β1 = 8, β2 = 3, budget tracking with a smoothing penalty.
var paperMPC = ctrl.MPCConfig{PowerWeight: 1, SmoothWeight: 6}

// spec is one named workload.
type spec struct {
	name string
	// tenants is the number of controllers; more than one is stepped as a
	// fleet through core.StepAll.
	tenants int
	// horizon is the number of ticks (tick 0 included) over which the
	// quality metrics are taken; a run always covers at least this span.
	horizon int
	// setupReps is how many times setup is repeated for setup_s.
	setupReps int
	// frozen holds every tenant's tick-0 demand for the whole run.
	frozen bool
	// tenant builds tenant i's controller and demand source for a seed.
	tenant func(seed int64, i int) (*tenant, error)
}

var specs = []*spec{
	{name: "paper-day", tenants: 1, horizon: 4 * ticksPerDay, setupReps: 31, tenant: paperTenant},
	{name: "scale-hourly", tenants: 1, horizon: 2 * ticksPerHour, setupReps: 3, tenant: scaleTenant},
	{name: "fleet-day", tenants: 8, horizon: ticksPerDay / 2, setupReps: 31, tenant: paperTenant},
}

func lookupSpec(name string) (*spec, error) {
	for _, w := range specs {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(specs))
	for i, w := range specs {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tenant is one controller plus the generator of its demand vectors.
type tenant struct {
	top *idc.Topology
	cfg core.Config
	ctl *core.Controller
	// gens produce the moving demand; when nil the demand stays fixed.
	gens []*workload.Diurnal
	// offset shifts the generator step so demand follows StartHour.
	offset int
	frozen bool
	demand []float64
	// base is the budget vector outside DR events (0 = none).
	base []float64
}

// subSeed derives a generator seed from the workload seed (splitmix64), so
// every portal of every tenant gets an independent noise path.
func subSeed(seed int64, tenant, portal int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tenant)<<32 + uint64(portal) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// paperTenant is the paper's own configuration: idc.PaperTopology, Table I
// demand shaped by a seeded diurnal curve with AR(1) noise, AR/RLS
// forecasting and the §V.C budgets. Tenant i starts at price hour i.
func paperTenant(seed int64, i int) (*tenant, error) {
	top := idc.PaperTopology()
	table := workload.TableI()
	gens := make([]*workload.Diurnal, len(table))
	for p, d := range table {
		g, err := workload.NewDiurnal(workload.DiurnalConfig{
			Base: 0.45 * d, PeakBoost: 1.0, NoiseFrac: 0.05,
			StepsPerDay: ticksPerDay, Seed: subSeed(seed, i, p),
		})
		if err != nil {
			return nil, err
		}
		gens[p] = g
	}
	return &tenant{
		top: top,
		cfg: core.Config{
			Topology:    top,
			Prices:      price.NewEmbeddedModel(),
			MPC:         paperMPC,
			Ts:          ts,
			Budgets:     paperBudgets,
			UseForecast: true,
			StartHour:   i,
		},
		gens:   gens,
		offset: i * ticksPerHour,
		demand: make([]float64, top.C()),
		base:   append([]float64(nil), paperBudgets...),
	}, nil
}

// scaleTenant is the C10×N8 synthetic system under fixed demand: one
// diurnal sample per portal at 14:00, whose noise the seed draws, held for
// the run.
func scaleTenant(seed int64, i int) (*tenant, error) {
	top, err := idc.SyntheticTopology(10, 8, 20000)
	if err != nil {
		return nil, err
	}
	var capacity float64
	for _, c := range top.Capacities() {
		capacity += c
	}
	demand := make([]float64, top.C())
	for p := range demand {
		g, err := workload.NewDiurnal(workload.DiurnalConfig{
			Base: 0.35 * capacity / float64(top.C()), PeakBoost: 1.0, NoiseFrac: 0.005,
			StepsPerDay: ticksPerDay, Seed: subSeed(seed, i, p),
		})
		if err != nil {
			return nil, err
		}
		demand[p] = g.Rate(14 * ticksPerHour)
	}
	return &tenant{
		top: top,
		cfg: core.Config{
			Topology: top,
			Prices:   price.NewEmbeddedModel(),
			MPC:      paperMPC,
			Ts:       ts,
		},
		demand: demand,
		base:   make([]float64, top.N()),
	}, nil
}

// fill writes tick k's demand into t.demand. Generators carry AR(1) state,
// so fill must be called once per tick in tick order.
func (t *tenant) fill(k int) {
	if t.frozen && k > 0 {
		return
	}
	for p, g := range t.gens {
		t.demand[p] = g.Rate(k + t.offset)
	}
}

// drBudgets returns the budget vector of the DR event before tick k, or
// nil when no event is due. At :20 the binding IDC — the highest draw
// relative to its budget, or the highest draw when no budget is set — is
// capped at 90% of its budget (of its draw when unbudgeted); at :40 the
// base budgets return.
func (t *tenant) drBudgets(k int, last *core.Telemetry) []float64 {
	switch {
	case k%ticksPerHour == drRestore:
		return append([]float64(nil), t.base...)
	case k%ticksPerHour != drTighten || last == nil:
		return nil
	}
	budgeted := false
	for _, b := range t.base {
		budgeted = budgeted || b > 0
	}
	bind, score := 0, -1.0
	for j, w := range last.PowerWatts {
		s := w
		if budgeted {
			if t.base[j] <= 0 {
				continue
			}
			s = w / t.base[j]
		}
		if s > score {
			bind, score = j, s
		}
	}
	out := append([]float64(nil), t.base...)
	if out[bind] > 0 {
		out[bind] *= drFactor
	} else {
		out[bind] = drFactor * last.PowerWatts[bind]
	}
	return out
}

// system is one workload instance: its tenants, and for a fleet the pool
// that steps them.
type system struct {
	w       *spec
	tenants []*tenant
	pool    *par.Pool
	ctls    []*core.Controller
	demands [][]float64
	tels    []*core.Telemetry
	errs    []error
}

// newSystem builds the workload's controllers. pooled selects a par.Pool
// with one worker per CPU for fleets; otherwise fleets step serially.
func newSystem(w *spec, seed int64, pooled bool) (*system, error) {
	s := &system{
		w:       w,
		tenants: make([]*tenant, w.tenants),
		ctls:    make([]*core.Controller, w.tenants),
		demands: make([][]float64, w.tenants),
		tels:    make([]*core.Telemetry, w.tenants),
		errs:    make([]error, w.tenants),
	}
	for i := range s.tenants {
		t, err := w.tenant(seed, i)
		if err != nil {
			return nil, err
		}
		t.frozen = w.frozen
		t.ctl, err = core.New(t.cfg)
		if err != nil {
			return nil, err
		}
		s.tenants[i], s.ctls[i], s.demands[i] = t, t.ctl, t.demand
	}
	if pooled && w.tenants > 1 {
		s.pool = par.NewPool(context.Background(), runtime.NumCPU())
	}
	return s, nil
}

// close stops the fleet pool, if any, and waits for its workers.
func (s *system) close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

// fill generates every tenant's demand for tick k.
func (s *system) fill(k int) {
	for _, t := range s.tenants {
		t.fill(k)
	}
}

// tick advances the system one Ts: one Step, or one core.StepAll for a
// fleet. Per-tenant results land in s.tels and s.errs.
func (s *system) tick() error {
	if len(s.ctls) == 1 {
		s.tels[0], s.errs[0] = s.ctls[0].Step(s.demands[0])
		return s.errs[0]
	}
	return core.StepAll(s.pool, s.ctls, s.demands, s.tels, s.errs)
}

// dr applies the DR event due before tick k, if any, to every tenant and
// returns the budgets each tenant received (nil entries: no event) and the
// wall time of the SetBudgets calls alone.
func (s *system) dr(k int) ([][]float64, time.Duration, error) {
	var events [][]float64
	var wall time.Duration
	for i, t := range s.tenants {
		b := t.drBudgets(k, s.tels[i])
		if b == nil {
			continue
		}
		if events == nil {
			events = make([][]float64, len(s.tenants))
		}
		events[i] = b
		start := time.Now()
		err := t.ctl.SetBudgets(b, true)
		wall += time.Since(start)
		if err != nil {
			return events, wall, fmt.Errorf("tenant %d: SetBudgets before tick %d: %w", i, k, err)
		}
	}
	return events, wall, nil
}
