package main

import (
	"testing"

	"repro/internal/core"
)

// prefix returns w cut to the first price swap: ticks 0 … 122 cover the
// :20 and :40 DR events of hour 0 and the hour-1 price tick with the two
// ticks after it.
func prefix(w *spec) *spec {
	p := *w
	p.horizon = ticksPerHour + windowTicks
	return &p
}

// TestReplayBitIdentical replays a prefix of every workload through the
// layers and requires the shadow instances to reproduce U, Servers and
// PowerWatts bit for bit, every output check to pass, and the untraced run
// of the same seed to yield exactly the same quality metrics.
func TestReplayBitIdentical(t *testing.T) {
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			w := prefix(w)
			r, err := traced(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			if r.mismatch != "" {
				t.Fatalf("replay: %s", r.mismatch)
			}
			if r.rec.firstFail != "" {
				t.Fatalf("output check: %s", r.rec.firstFail)
			}
			if want := 2 * w.tenants; r.budgetEvents != want {
				t.Errorf("budget events = %d, want %d", r.budgetEvents, want)
			}
			if r.swaps != w.tenants {
				t.Errorf("price swaps = %d, want %d", r.swaps, w.tenants)
			}

			base, err := setup(w, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer base.sys.close()
			if err := base.run(0, w.horizon); err != nil {
				t.Fatal(err)
			}
			if base.attempted != w.horizon {
				t.Fatalf("untraced run attempted %d ticks, want %d", base.attempted, w.horizon)
			}
			if !sameQuality(base.rec.q, r.rec.q) {
				t.Errorf("quality differs: untraced %v, traced %v", base.rec.q.metrics(), r.rec.q.metrics())
			}
		})
	}
}

// TestChecksCatchBadTelemetry corrupts one field of a valid tick at a time
// and expects the matching check to name it.
func TestChecksCatchBadTelemetry(t *testing.T) {
	res, err := setup(specs[0], 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer res.sys.close()
	tn, tel := res.sys.tenants[0], res.sys.tels[0]
	if name, _ := checkTick(tn.top, tn.demand, tel, 0); name != "" {
		t.Fatalf("valid tick failed %q", name)
	}
	cases := []struct {
		want   string
		mutate func(c *corrupt)
	}{
		{"conservation", func(c *corrupt) { c.u[0] += 1 }},
		{"nonnegative", func(c *corrupt) {
			// Keep portal 0's sum: move λ00 and one more onto λ01.
			j := tn.top.Index(0, 1)
			c.u[j], c.u[0] = c.u[j]+c.u[0]+1, -1
		}},
		{"servers", func(c *corrupt) { c.servers[0] = tn.top.IDC(0).TotalServers + 1 }},
		{"latency", func(c *corrupt) { c.lat[2] = 2 * tn.top.IDC(2).DelayBound }},
		{"cost", func(c *corrupt) { c.tel.CostRate *= 2 }},
	}
	for _, tc := range cases {
		c := newCorrupt(tel)
		tc.mutate(c)
		if name, _ := checkTick(tn.top, tn.demand, c.tel, 0); name != tc.want {
			t.Errorf("got %q, want %q", name, tc.want)
		}
	}
}

// corrupt is a deep copy of a telemetry record to tamper with.
type corrupt struct {
	tel     *core.Telemetry
	u, lat  []float64
	servers []int
}

func newCorrupt(tel *core.Telemetry) *corrupt {
	cp := *tel
	cp.U = append([]float64(nil), tel.U...)
	cp.LatencySeconds = append([]float64(nil), tel.LatencySeconds...)
	cp.Servers = append([]int(nil), tel.Servers...)
	return &corrupt{tel: &cp, u: cp.U, lat: cp.LatencySeconds, servers: cp.Servers}
}

// TestFrozenDemandHoldsTickZero covers the traffic-comparison mode behind
// --frozen-demand: every tick sees tick 0's demand and passes the checks.
func TestFrozenDemandHoldsTickZero(t *testing.T) {
	w := prefix(specs[0])
	w.frozen = true
	res, err := setup(w, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer res.sys.close()
	first := append([]float64(nil), res.sys.tels[0].Demands...)
	if err := res.run(0, w.horizon); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d ticks failed: %s", res.failed, res.rec.firstFail)
	}
	if got := res.sys.tels[0].Demands; !sameFloats(got, first) {
		t.Errorf("demand moved: tick 0 %v, last tick %v", first, got)
	}
}
