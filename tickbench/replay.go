package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/power"
	"repro/internal/queueing"
	"repro/internal/sleep"
)

// layer names a span kind. Roots are the system calls the benchmark times;
// the rest are replayed layer calls.
type layer uint8

const (
	lStep       layer = iota // core.Controller.Step, or serial core.StepAll for a fleet
	lSetBudgets              // core.Controller.SetBudgets(…, true)
	lPool                    // pooled core.StepAll (fleet only)
	lPrice                   // price.Model.Price, every IDC of one slow tick
	lDiscretize              // ctrl.NewFoldedModel
	lObserve                 // forecast.Predictor.Observe, every portal
	lPredict                 // forecast.Predictor.Forecast, every portal
	lReference               // alloc.Solver.OptimizeWithBudgets (+ unconstrained fallback)
	lTrajectory              // the β1 trajectory LPs (alloc.OptimizeWithBudgets)
	lMPCWarm                 // ctrl.MPC.Step on an unchanged model
	lMPCCold                 // ctrl.MPC.Step right after a model swap
	lSleep                   // sleep.Controller.Counts
	lPlant                   // ctrl.Model.Step + ctrl.Model.PowerRates
	lLatency                 // queueing.Latency, every IDC
	nLayers
)

var layerNames = [nLayers]string{
	"core.step", "core.set_budgets", "par.pool_step", "price.price", "ctrl.discretize",
	"forecast.observe", "forecast.predict", "alloc.reference", "alloc.trajectory",
	"ctrl.mpc_warm", "ctrl.mpc_cold", "sleep.counts", "ctrl.plant", "queueing.latency",
}

// span is one timed interval. Times are nanoseconds since the trace epoch;
// parent indexes the root span a replayed call belongs to (-1 for roots).
type span struct {
	start, end int64
	parent     int32
	tick       int32
	tenant     int16
	layer      layer
}

// tracer keeps spans in memory and per-layer durations for the metrics.
type tracer struct {
	epoch  time.Time
	spans  []span
	parent int32
	tick   int32
	tenant int16
	dur    [nLayers][]float64 // span durations, ns
	// childNS sums replayed-call time since the last root was opened.
	childNS    int64
	priceCalls int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), parent: -1} }

func (tr *tracer) now() int64 { return time.Since(tr.epoch).Nanoseconds() }

// root records a root span and makes it the parent of the replayed calls
// that follow.
func (tr *tracer) root(l layer, k, tenant int, start, end int64) {
	tr.spans = append(tr.spans, span{start: start, end: end, parent: -1, tick: int32(k), tenant: int16(tenant), layer: l})
	tr.dur[l] = append(tr.dur[l], float64(end-start))
	tr.parent, tr.tick, tr.childNS = int32(len(tr.spans)-1), int32(k), 0
}

// end closes a replayed call opened at start.
func (tr *tracer) end(l layer, start int64) {
	e := tr.now()
	tr.spans = append(tr.spans, span{start: start, end: e, parent: tr.parent, tick: tr.tick, tenant: tr.tenant, layer: l})
	tr.dur[l] = append(tr.dur[l], float64(e-start))
	tr.childNS += e - start
}

// shadow replays one controller's ticks through the layers' public
// functions on its own instances, in the order core.Controller.Step calls
// them. Fed the recorded inputs of each tick, it must reproduce the
// controller's U, Servers and PowerWatts bit for bit.
type shadow struct {
	t        *tenant
	tr       *tracer
	id       int16
	mpc      *ctrl.MPC
	slp      *sleep.Controller
	preds    []*forecast.Predictor
	ref      *alloc.Solver
	model    *ctrl.Model
	stepped  *ctrl.Model // model of the last MPC step; a change makes the next step cold
	refPower []float64
	refTraj  [][]float64
	// u and servers are the cold-start allocation, used by tick 0 only.
	u       []float64
	servers []int
	started bool
}

func newShadow(t *tenant, tr *tracer, id int) (*shadow, error) {
	mpc, err := ctrl.NewMPC(t.cfg.MPC)
	if err != nil {
		return nil, err
	}
	slp, err := sleep.New(t.top, t.cfg.Sleep)
	if err != nil {
		return nil, err
	}
	s := &shadow{t: t, tr: tr, id: int16(id), mpc: mpc, slp: slp, ref: alloc.NewSolver()}
	if t.cfg.UseForecast {
		for i := 0; i < t.top.C(); i++ {
			p, err := forecast.NewPredictor(t.cfg.Forecast)
			if err != nil {
				return nil, err
			}
			s.preds = append(s.preds, p)
		}
	}
	return s, nil
}

// recorded is one tick as the controller saw it: the inputs read before
// Step and the telemetry it returned. prev is the previous tick's
// telemetry (nil for tick 0).
type recorded struct {
	k       int
	state   []float64
	budgets []float64
	demands []float64
	prev    *core.Telemetry
	tel     *core.Telemetry
}

// tick replays one Step and checks the outputs against the telemetry.
func (s *shadow) tick(in recorded) error {
	tr, top := s.tr, s.t.top
	tr.tenant = s.id
	if s.preds != nil {
		st := tr.now()
		for i, p := range s.preds {
			p.Observe(in.demands[i])
		}
		tr.end(lObserve, st)
	}
	prevU, prevServers := s.u, s.servers
	if in.prev != nil {
		prevU, prevServers = in.prev.U, in.prev.Servers
	}
	if !s.started || in.k%ticksPerHour == 0 {
		if err := s.slowTick(in.tel.Hour, in.demands, in.budgets, prevU, prevServers); err != nil {
			return err
		}
		if in.prev == nil {
			prevU, prevServers = s.u, s.servers
		}
	}

	l := lMPCWarm
	if s.model != s.stepped {
		l = lMPCCold
	}
	st := tr.now()
	out, err := s.mpc.Step(ctrl.StepInput{
		Model:        s.model,
		State:        in.state,
		PrevU:        prevU,
		Servers:      prevServers,
		Demands:      in.demands,
		RefPower:     s.refPower,
		RefPowerTraj: s.refTraj,
	})
	tr.end(l, st)
	if err != nil {
		return err
	}
	s.stepped = s.model
	a, err := idc.AllocationFromVector(top, out.U)
	if err != nil {
		return err
	}
	st = tr.now()
	servers, err := s.slp.Counts(a, prevServers)
	tr.end(lSleep, st)
	if err != nil {
		return err
	}
	st = tr.now()
	_, err = s.model.Step(in.state, out.U, servers)
	var watts []float64
	if err == nil {
		watts, err = s.model.PowerRates(out.U, servers)
	}
	tr.end(lPlant, st)
	if err != nil {
		return err
	}
	st = tr.now()
	per := a.PerIDC()
	for j := 0; j < top.N(); j++ {
		d := top.IDC(j)
		if _, err = queueing.Latency(servers[j], d.ServiceRate, per[j]); err != nil {
			break
		}
	}
	tr.end(lLatency, st)
	if err != nil {
		return err
	}
	switch {
	case !sameFloats(out.U, in.tel.U):
		return errors.New("U differs")
	case !sameInts(servers, in.tel.Servers):
		return errors.New("Servers differ")
	case !sameFloats(watts, in.tel.PowerWatts):
		return errors.New("PowerWatts differ")
	}
	return nil
}

// setBudgets replays an immediate SetBudgets issued before tick k: a slow
// tick on the last observed demand with the new budgets.
func (s *shadow) setBudgets(k int, budgets []float64, last *core.Telemetry) error {
	s.tr.tenant = s.id
	hour := s.t.cfg.StartHour + k/ticksPerHour
	return s.slowTick(hour, last.Demands, budgets, last.U, last.Servers)
}

// slowTick mirrors the controller's slow tick: prices, the folded model,
// the forecast, the reference LP with its budget clamp, and the reference
// trajectory. u and servers are the applied allocation the price model
// sees as load.
func (s *shadow) slowTick(hour int, demands, budgets, u []float64, servers []int) error {
	tr, top, cfg := s.tr, s.t.top, s.t.cfg
	n := top.N()

	// The price span includes the load the price model is fed, as the
	// controller's price stage does.
	st := tr.now()
	prices := make([]float64, n)
	for j := 0; j < n; j++ {
		var loadMW float64
		if s.started {
			if rates, err := s.model.PowerRates(u, servers); err == nil {
				loadMW = power.WattsToMW(rates[j])
			}
		}
		p, err := cfg.Prices.Price(top.IDC(j).Region, hour, loadMW)
		if err != nil {
			tr.end(lPrice, st)
			return fmt.Errorf("price for idc %d: %w", j, err)
		}
		if p < 0 {
			p = 0
		}
		prices[j] = p
	}
	tr.priceCalls += n
	tr.end(lPrice, st)

	st = tr.now()
	model, err := ctrl.NewFoldedModel(top, prices, cfg.Ts)
	tr.end(lDiscretize, st)
	if err != nil {
		return err
	}
	s.model = model

	refDemands := demands
	if s.preds != nil {
		st = tr.now()
		predicted := make([]float64, len(demands))
		usable := true
		for i, p := range s.preds {
			f, err := p.Forecast(1)
			if err != nil || f[0] < 0 {
				usable = false
				break
			}
			predicted[i] = f[0]
		}
		tr.end(lPredict, st)
		if usable && top.Feasible(predicted) {
			refDemands = predicted
		}
	}
	st = tr.now()
	ref, err := s.ref.OptimizeWithBudgets(top, prices, refDemands, budgets)
	if err != nil && errors.Is(err, alloc.ErrInfeasible) && anyPositive(budgets) {
		ref, err = alloc.Optimize(top, prices, refDemands)
	}
	tr.end(lReference, st)
	if err != nil {
		return err
	}
	s.refPower = clampTo(ref.PowerWatts, budgets)
	s.refTraj = nil
	if s.preds != nil {
		s.refTraj = s.trajectory(prices, budgets)
	}
	if !s.started {
		s.u = ref.Allocation.Vector()
		st = tr.now()
		s.servers, err = s.slp.Counts(ref.Allocation, nil)
		tr.end(lSleep, st)
		if err != nil {
			return err
		}
		s.started = true
	}
	return nil
}

// trajectory mirrors the controller's eq. (41) reference trajectory: one
// budget-aware LP per prediction step over the multi-step forecast.
func (s *shadow) trajectory(prices, budgets []float64) [][]float64 {
	tr, top := s.tr, s.t.top
	h := s.mpc.Config().PredHorizon
	st := tr.now()
	perPortal := make([][]float64, top.C())
	for i, p := range s.preds {
		f, err := p.Forecast(h)
		if err != nil {
			tr.end(lPredict, st)
			return nil
		}
		perPortal[i] = f
	}
	tr.end(lPredict, st)

	st = tr.now()
	defer tr.end(lTrajectory, st)
	traj := make([][]float64, 0, h)
	for k := 0; k < h; k++ {
		demands := make([]float64, top.C())
		for i := range demands {
			d := perPortal[i][k]
			if d < 0 {
				d = 0
			}
			demands[i] = d
		}
		if !top.Feasible(demands) {
			break
		}
		ref, err := alloc.OptimizeWithBudgets(top, prices, demands, budgets)
		if err != nil {
			if !errors.Is(err, alloc.ErrInfeasible) || !anyPositive(budgets) {
				break
			}
			if ref, err = alloc.Optimize(top, prices, demands); err != nil {
				break
			}
		}
		traj = append(traj, clampTo(ref.PowerWatts, budgets))
	}
	if len(traj) == 0 {
		return nil
	}
	return traj
}

// clampTo caps each power at its positive budget (the §IV.D clamp).
func clampTo(watts, budgets []float64) []float64 {
	out := make([]float64, len(watts))
	for j, w := range watts {
		if b := budgets[j]; b > 0 && w > b {
			w = b
		}
		out[j] = w
	}
	return out
}

func anyPositive(xs []float64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
