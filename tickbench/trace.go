package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// traceRun is a traced run of one workload: the system is stepped in
// closed loop as in the untraced run, and after every Step (or SetBudgets)
// the benchmark replays the call through the layers on shadow instances,
// timing each layer call as a span under the tick's root span.
type traceRun struct {
	tr      *tracer
	sys     *system // pooled fleet, or the single controller
	serial  *system // fleet only: the same fleet stepped by core.StepAll(nil, …)
	stepped *system // the system whose Steps are replayed (serial for a fleet)
	shadows []*shadow
	rec     *recorder

	step, self, pool []float64 // per tick (k ≥ 1), ns
	stepNS, childNS  float64   // totals over step roots
	moves, swaps     int
	budgetEvents     int
	mismatch         string
}

// traced runs the quality horizon of w with the layer replay.
func traced(w *spec, seed int64) (*traceRun, error) {
	r := &traceRun{tr: newTracer()}
	var err error
	if r.sys, err = newSystem(w, seed, true); err != nil {
		return nil, err
	}
	r.stepped = r.sys
	if w.tenants > 1 {
		if r.serial, err = newSystem(w, seed, false); err != nil {
			r.sys.close()
			return nil, err
		}
		r.stepped = r.serial
	}
	defer r.sys.close()
	for i, t := range r.stepped.tenants {
		sh, err := newShadow(t, r.tr, i)
		if err != nil {
			return nil, err
		}
		r.shadows = append(r.shadows, sh)
	}
	r.rec = newRecorder(r.stepped)
	for k := 0; k < w.horizon; k++ {
		if err := r.tick(k); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// fail records the first replay mismatch; the run goes on.
func (r *traceRun) fail(k, tenant int, what string) {
	if r.mismatch == "" {
		r.mismatch = failName(k, tenant, what)
	}
}

func (r *traceRun) tick(k int) error {
	tr, n := r.tr, len(r.stepped.tenants)
	if k > 0 {
		if r.serial != nil {
			if _, _, err := r.sys.dr(k); err != nil {
				return err
			}
		}
		st := tr.now()
		events, _, err := r.stepped.dr(k)
		if err != nil {
			return err
		}
		if events != nil {
			tr.root(lSetBudgets, k, -1, st, tr.now())
			for i, b := range events {
				if b == nil {
					continue
				}
				r.budgetEvents++
				if err := r.shadows[i].setBudgets(k, b, r.stepped.tels[i]); err != nil {
					r.fail(k, i, "replay SetBudgets: "+err.Error())
				}
			}
		}
	}

	ins := make([]recorded, n)
	for i, t := range r.stepped.tenants {
		prevDemand := append([]float64(nil), t.demand...)
		t.fill(k)
		if k > 0 && !sameFloats(prevDemand, t.demand) {
			r.moves++
		}
		ins[i] = recorded{k: k, state: t.ctl.State(), budgets: t.ctl.Budgets(),
			demands: append([]float64(nil), t.demand...), prev: r.stepped.tels[i]}
	}
	if r.serial != nil {
		r.sys.fill(k)
		st := tr.now()
		err := r.sys.tick()
		end := tr.now()
		tr.root(lPool, k, -1, st, end)
		if k > 0 {
			r.pool = append(r.pool, float64(end-st))
		}
		if err != nil {
			r.fail(k, -1, "pooled StepAll: "+err.Error())
		}
	}
	st := tr.now()
	err := r.stepped.tick()
	end := tr.now()
	tr.root(lStep, k, -1, st, end)
	r.rec.record(k, err)
	for i := range ins {
		tel := r.stepped.tels[i]
		if tel == nil {
			continue
		}
		if r.serial != nil {
			if p := r.sys.tels[i]; p == nil || !sameFloats(p.U, tel.U) || !sameInts(p.Servers, tel.Servers) {
				r.fail(k, i, "pooled and serial StepAll disagree")
			}
		}
		if prev := ins[i].prev; prev != nil && k%ticksPerHour == 0 && !sameFloats(prev.Prices, tel.Prices) {
			r.swaps++
		}
		ins[i].tel = tel
		if err := r.shadows[i].tick(ins[i]); err != nil {
			r.fail(k, i, "replay: "+err.Error())
		}
	}
	if k > 0 {
		r.step = append(r.step, float64(end-st))
		r.self = append(r.self, float64(end-st-tr.childNS))
		r.stepNS += float64(end - st)
		r.childNS += float64(tr.childNS)
	}
	return nil
}

// counter sums a controller counter over the replayed system's tenants.
func (r *traceRun) counter(name string) float64 {
	var total uint64
	for _, c := range r.stepped.ctls {
		v, _ := c.Metrics().Snapshot().Counter(name)
		total += v
	}
	return float64(total)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer returns the per-layer metrics. base is the untraced run of the
// same seed over the same horizon, which supplies the runtime (GC)
// figures and the reference for the tracing overhead.
func (r *traceRun) perLayer(base *result) []metric {
	d := &r.tr.dur
	medUS := func(l layer) float64 { return median(d[l]) / 1e3 }
	ticks := len(r.step)
	steps := float64((ticks + 1) * len(r.stepped.tenants))

	// The tracing overhead compares like with like: Step (or the pooled
	// StepAll for a fleet) with and without the replay running beside it.
	traced := median(r.step)
	if r.serial != nil {
		traced = median(r.pool)
	}
	overhead := (traced/1e3/median(base.tim.wall.ticks) - 1) * 100

	var poolUS, serialUS, eff float64
	if r.serial != nil {
		poolUS, serialUS = median(r.pool)/1e3, median(r.step)/1e3
		eff = serialUS / (poolUS * float64(r.sys.pool.Workers()))
	}
	hits, misses := r.counter("idc_mpc_cache_hits_total"), r.counter("idc_mpc_cache_misses_total")
	fact, reuse := r.counter("idc_qp_factorizations_total"), r.counter("idc_qp_factor_reuse_total")
	warm, cold := r.counter("idc_lp_warm_solves_total"), r.counter("idc_lp_cold_solves_total")
	bt := base.after
	gcCPU := ratio(bt.gcCPU-base.before.gcCPU, bt.allCPU-base.before.allCPU)
	gcCycles := ratio(float64(bt.numGC-base.before.numGC)*1000, float64(len(base.tim.wall.ticks)))
	vars := r.stepped.tenants[0].top.NU() * r.shadows[0].mpc.Config().CtrlHorizon

	out := []metric{
		{"core.step_us", median(r.step) / 1e3, "us", ticks, false},
		{"core.self_us", median(r.self) / 1e3, "us", ticks, false},
		{"core.layer_coverage", ratio(r.childNS, r.stepNS), "ratio", ticks, false},
		{"core.trace_overhead_pct", overhead, "%", ticks, false},
		{"core.slow_ticks", r.counter("idc_slow_ticks_total"), "count", 1, false},
		{"core.ref_clamps", r.counter("idc_ref_clamp_total"), "count", 1, false},
		{"core.budget_relax", r.counter("idc_budget_relax_total"), "count", 1, false},
		{"core.forecast_fallbacks", r.counter("idc_forecast_fallback_total"), "count", 1, false},
		{"core.budget_violation_steps", r.counter("idc_budget_violation_steps_total"), "count", 1, false},
		{"ctrl.mpc_warm_us", medUS(lMPCWarm), "us", len(d[lMPCWarm]), false},
		{"ctrl.plant_us", medUS(lPlant), "us", len(d[lPlant]), false},
		{"qp.iterations_per_tick", r.counter("idc_qp_iterations_total") / steps, "count", int(steps), false},
		{"qp.factorizations", fact, "count", 1, false},
		{"qp.factor_reuse_ratio", ratio(reuse, reuse+fact), "ratio", int(reuse + fact), false},
		{"ctrl.mpc_cold_ms", median(d[lMPCCold]) / 1e6, "ms", len(d[lMPCCold]), false},
		{"ctrl.discretize_us", medUS(lDiscretize), "us", len(d[lDiscretize]), false},
		{"ctrl.model_builds", float64(len(d[lDiscretize])), "count", 1, false},
		{"ctrl.model_swaps", r.counter("idc_mpc_model_swaps_total"), "count", 1, false},
		{"ctrl.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits + misses), false},
		{"alloc.reference_us", medUS(lReference), "us", len(d[lReference]), false},
		{"alloc.trajectory_us", medUS(lTrajectory), "us", len(d[lTrajectory]), false},
		{"lp.warm_ratio", ratio(warm, warm+cold), "ratio", int(warm + cold), false},
		{"lp.pivots_per_solve", ratio(r.counter("idc_lp_pivots_total"), warm+cold), "count", int(warm + cold), false},
		{"forecast.observe_us", medUS(lObserve), "us", len(d[lObserve]), false},
		{"forecast.predict_us", medUS(lPredict), "us", len(d[lPredict]), false},
		{"price.calls", float64(r.tr.priceCalls), "count", 1, false},
		{"price.us_per_resolve", medUS(lPrice), "us", len(d[lPrice]), false},
		{"sleep.counts_us", medUS(lSleep), "us", len(d[lSleep]), false},
		{"queueing.latency_us", medUS(lLatency), "us", len(d[lLatency]), false},
		{"par.pool_tick_us", poolUS, "us", len(r.pool), false},
		{"par.serial_tick_us", serialUS, "us", len(r.pool), false},
		{"par.efficiency", eff, "ratio", len(r.pool), false},
		{"gc.cpu_frac", gcCPU, "ratio", len(base.tim.wall.ticks), false},
		{"gc.cycles_per_1k_ticks", gcCycles, "count", len(base.tim.wall.ticks), false},
		{"input.demand_moves_frac", ratio(float64(r.moves), float64(ticks*len(r.stepped.tenants))), "ratio", ticks, false},
		{"input.price_swaps", float64(r.swaps), "count", 1, false},
		{"input.budget_events", float64(r.budgetEvents), "count", 1, false},
		{"input.decision_vars", float64(vars), "count", 1, false},
		{"check.latency_overshoots", float64(r.rec.overshoots), "count", ticks + 1, false},
	}
	for _, m := range r.rec.q.metrics() {
		if m.tableOnly {
			m.name, m.tableOnly = "quality."+m.name, false
			out = append(out, m)
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func (r *traceRun) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for id, s := range r.tr.spans {
		parent := "null"
		if s.parent >= 0 {
			parent = fmt.Sprint(s.parent)
		}
		fmt.Fprintf(bw, `{"id":%d,"tick":%d,"tenant":%d,"layer":%q,"start_ns":%d,"end_ns":%d,"parent":%s}`+"\n",
			id, s.tick, s.tenant, layerNames[s.layer], s.start, s.end, parent)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
