package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/idc"
)

// latencyTol is the relative slack of the latency check. At a full fleet
// the latency constraint is active, and the achieved latency can land a few
// ulps above the bound (7e-15 relative has been seen); such ticks pass the
// check and are counted by overshoots instead.
const latencyTol = 1e-9

// checkTick runs the per-tick output checks on one tenant's telemetry and
// returns the name of the first failing check, or "" when all pass, and
// whether any IDC's latency exceeded its bound by less than latencyTol.
// prevCost is the tenant's CumulativeCost before this tick.
func checkTick(top *idc.Topology, demands []float64, tel *core.Telemetry, prevCost float64) (string, bool) {
	c, n := top.C(), top.N()
	for i := 0; i < c; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += tel.U[top.Index(i, j)]
		}
		if math.Abs(sum-demands[i]) > 1e-6*math.Max(1, math.Abs(demands[i])) {
			return "conservation", false
		}
	}
	for _, l := range tel.U {
		if !(l >= 0) {
			return "nonnegative", false
		}
	}
	for j, m := range tel.Servers {
		if m < 0 || m > top.IDC(j).TotalServers {
			return "servers", false
		}
	}
	overshoot := false
	for j, l := range tel.LatencySeconds {
		d := top.IDC(j).DelayBound
		if !(l <= d*(1+latencyTol)) {
			return "latency", false
		}
		overshoot = overshoot || l > d
	}
	inc := tel.CumulativeCost - prevCost
	if math.Abs(inc-tel.CostRate*ts/3600) > 1e-9*math.Max(1, math.Abs(tel.CumulativeCost)) {
		return "cost", overshoot
	}
	return "", overshoot
}

// quality accumulates the control-quality metrics over the quality
// horizon: cost, power swing (smoothing), energy over budget (peak
// shaving) and per-IDC peaks. Values depend only on the telemetry, so an
// untraced and a traced run of one seed must agree exactly.
type quality struct {
	prev    [][]float64 // per tenant: last tick's PowerWatts
	peak    [][]float64 // per tenant: per-IDC max power
	cost    []float64   // per tenant: last CumulativeCost
	swingW  float64
	excessJ float64
	ticks   int
	failed  int
}

func newQuality(tenants int) *quality {
	return &quality{
		prev: make([][]float64, tenants),
		peak: make([][]float64, tenants),
		cost: make([]float64, tenants),
	}
}

// add folds one tenant's tick into the totals.
func (q *quality) add(i int, tel *core.Telemetry) {
	if q.peak[i] == nil {
		q.peak[i] = make([]float64, len(tel.PowerWatts))
		q.prev[i] = make([]float64, len(tel.PowerWatts))
	} else {
		for j, w := range tel.PowerWatts {
			q.swingW += math.Abs(w - q.prev[i][j])
		}
	}
	for j, w := range tel.PowerWatts {
		q.peak[i][j] = math.Max(q.peak[i][j], w)
		if b := tel.BudgetWatts[j]; b > 0 && w > b {
			q.excessJ += (w - b) * ts
		}
	}
	copy(q.prev[i], tel.PowerWatts)
	q.cost[i] = tel.CumulativeCost
}

// metrics returns the five quality metrics in a fixed order.
func (q *quality) metrics() []metric {
	var cost, peak float64
	for i := range q.cost {
		cost += q.cost[i]
		for _, p := range q.peak[i] {
			peak += p
		}
	}
	fail := 0.0
	if q.ticks > 0 {
		fail = float64(q.failed) / float64(q.ticks)
	}
	// budget_excess_mwh spreads across seeds more than any bound allows
	// and tick_fail_frac is 0 on a correct run (carried by "failed"), so
	// both stay out of the result line; the traced run reports them.
	return []metric{
		{"cost_usd", cost, "usd", q.ticks, false},
		{"power_swing_mw", q.swingW / 1e6, "MW", q.ticks, false},
		{"budget_excess_mwh", q.excessJ / 3.6e9, "MWh", q.ticks, true},
		{"peak_mw", peak / 1e6, "MW", q.ticks, false},
		{"tick_fail_frac", fail, "ratio", q.ticks, true},
	}
}

// sameQuality reports whether two quality records are bit-identical.
func sameQuality(a, b *quality) bool {
	am, bm := a.metrics(), b.metrics()
	for i := range am {
		if math.Float64bits(am[i].value) != math.Float64bits(bm[i].value) {
			return false
		}
	}
	return true
}

// recorder tracks, per tenant, what the checks need from the previous tick
// and feeds the quality totals for ticks inside the horizon.
type recorder struct {
	sys      *system
	q        *quality
	prevCost []float64
	// overshoots counts tenant ticks whose latency passed the check only
	// within latencyTol.
	overshoots int
	// firstFail names the first failing tick and check, for the report.
	firstFail string
}

func newRecorder(sys *system) *recorder {
	return &recorder{
		sys:      sys,
		q:        newQuality(len(sys.tenants)),
		prevCost: make([]float64, len(sys.tenants)),
	}
}

// record checks tick k of every tenant after sys.tick returned err and
// reports whether the tick failed.
func (r *recorder) record(k int, err error) bool {
	failed := false
	for i, t := range r.sys.tenants {
		tel, terr := r.sys.tels[i], r.sys.errs[i]
		name := ""
		switch {
		case terr != nil:
			name = "step error: " + terr.Error()
		case tel == nil:
			name = "no telemetry"
		default:
			var over bool
			name, over = checkTick(t.top, t.demand, tel, r.prevCost[i])
			if over {
				r.overshoots++
			}
			r.prevCost[i] = tel.CumulativeCost
			if k < r.sys.w.horizon {
				r.q.add(i, tel)
			}
		}
		if name != "" {
			failed = true
			if r.firstFail == "" {
				r.firstFail = failName(k, i, name)
			}

		}
	}
	if err != nil && !failed {
		failed = true
		if r.firstFail == "" {
			r.firstFail = failName(k, -1, err.Error())
		}
	}
	if k < r.sys.w.horizon {
		r.q.ticks++
		if failed {
			r.q.failed++
		}
	}
	return failed
}

func failName(k, tenant int, what string) string {
	return fmt.Sprintf("tick %d tenant %d: %s", k, tenant, what)
}
