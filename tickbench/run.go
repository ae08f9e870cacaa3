package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metric is one reported figure with the number of samples behind it.
// tableOnly metrics are printed but left out of the result line.
type metric struct {
	name      string
	value     float64
	unit      string
	n         int
	tableOnly bool
}

// series are the time samples of one closed-loop run on one clock.
type series struct {
	ticks    []float64 // per tick, µs
	boundary []float64 // price-swap windows, ms
	dr       []float64 // budget-swap windows, ms
	busy     time.Duration
	// open windows being summed: remaining ticks and time so far.
	bLeft, dLeft int
	bAcc, dAcc   time.Duration
}

// timings hold a run's samples on the wall clock and on the process's CPU
// clock (all threads), which a VM's steal time does not advance.
type timings struct {
	wall, cpu series
}

// windowTicks is how many ticks a re-solve window spans: the tick that ran
// the slow tick (or follows the SetBudgets calls) and the next one more.
const windowTicks = 3

// tick folds one tick in; k is its index, d its time and dr that of the
// SetBudgets calls issued just before it (dr is false when none were).
func (t *series) tick(k int, d, drTime time.Duration, dr bool) {
	t.ticks = append(t.ticks, us(d))
	t.busy += d + drTime
	if k%ticksPerHour == 0 {
		t.bLeft, t.bAcc = windowTicks, 0
	}
	if dr {
		// The budget-swap window is the SetBudgets call(s) plus two ticks.
		t.dLeft, t.dAcc = windowTicks-1, drTime
	}
	if t.bLeft > 0 {
		t.bAcc += d
		if t.bLeft--; t.bLeft == 0 {
			t.boundary = append(t.boundary, ms(t.bAcc))
		}
	}
	if t.dLeft > 0 {
		t.dAcc += d
		if t.dLeft--; t.dLeft == 0 {
			t.dr = append(t.dr, ms(t.dAcc))
		}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the CPU time the process's threads have used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runStats are process-level counters read before and after a run.
type runStats struct {
	mallocs, bytes uint64
	numGC          uint32
	gcCPU, allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readStats() runStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(cpuSamples)
	s := runStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, numGC: m.NumGC}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
		s.allCPU = cpuSamples[1].Value.Float64()
	}
	return s
}

var heapLiveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapLiveMB returns the heap the last garbage collection marked live, in
// MiB. Reading into a preallocated sample allocates nothing, so sampling
// every tick leaves the allocation metrics alone.
func heapLiveMB() float64 {
	metrics.Read(heapLiveSample)
	if heapLiveSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(heapLiveSample[0].Value.Uint64()) / (1 << 20)
}

// buffersMB is the heap the run's own per-tick sample buffers hold. The
// live-heap samples leave it out, so that a run that covers more ticks
// does not read as a larger program.
func (res *result) buffersMB() float64 {
	n := cap(res.tim.wall.ticks) + cap(res.tim.cpu.ticks) + cap(res.heapLive)
	return float64(8*n) / (1 << 20)
}

// result is the outcome of one closed-loop run of a workload.
type result struct {
	sys       *system
	rec       *recorder
	tim       timings
	setup     []float64 // process CPU seconds per set-up repetition
	setupWall []float64 // wall seconds per set-up repetition
	heapLive  []float64 // live heap after each tick less buffersMB, MiB
	attempted int
	failed    int
	before    runStats
	after     runStats
}

// setup builds the system and runs its cold first tick reps times, keeps
// the last instance and returns it with each repetition's CPU and wall
// time.
func setup(w *spec, seed int64, reps int) (*result, error) {
	res := &result{}
	for r := 0; r < reps; r++ {
		if res.sys != nil {
			res.sys.close()
		}
		start, c0 := time.Now(), cpuTime()
		sys, err := newSystem(w, seed, true)
		if err != nil {
			return nil, err
		}
		sys.fill(0)
		err = sys.tick()
		res.setup = append(res.setup, (cpuTime() - c0).Seconds())
		res.setupWall = append(res.setupWall, time.Since(start).Seconds())
		res.sys, res.rec = sys, newRecorder(sys)
		res.attempted, res.failed = 1, 0
		if res.rec.record(0, err) {
			res.failed = 1
		}
	}
	return res, nil
}

// run drives the closed loop: one tick is issued when the previous one
// returns, and the DR schedule runs between ticks. The run stops at the
// first multiple of period ticks by which it has covered the quality
// horizon and seconds of wall time; timed runs pass a simulated day, so
// every run sees whole days of price swaps and DR windows.
func (res *result) run(seconds float64, period int) error {
	sys := res.sys
	res.tim.wall.ticks = make([]float64, 0, 1<<16)
	res.tim.cpu.ticks = make([]float64, 0, 1<<16)
	res.heapLive = make([]float64, 0, 1<<16)
	budget := time.Duration(seconds * float64(time.Second))
	res.before = readStats()
	start := time.Now()
	for k := 1; k%period != 0 || k < sys.w.horizon || time.Since(start) < budget; k++ {
		c0 := cpuTime()
		events, drWall, err := sys.dr(k)
		if err != nil {
			return err
		}
		var drCPU time.Duration
		if events != nil {
			drCPU = cpuTime() - c0
		}
		sys.fill(k)
		c1, t0 := cpuTime(), time.Now()
		err = sys.tick()
		wall, cpu := time.Since(t0), cpuTime()-c1
		res.tim.wall.tick(k, wall, drWall, events != nil)
		res.tim.cpu.tick(k, cpu, drCPU, events != nil)
		res.attempted++
		if res.rec.record(k, err) {
			res.failed++
		}
		res.heapLive = append(res.heapLive, heapLiveMB()-res.buffersMB())
	}
	res.after = readStats()
	return nil
}

// endToEnd returns the end-to-end metrics of an untraced run. The gated
// timings are on the process's CPU clock; their wall-clock twins, which
// follow a VM's steal time, are printed in the table only. So is the peak
// resident set, a maximum over the run's garbage collections that follows
// the host's scheduling of the collector; the gated memory figure is the
// median live heap instead.
func (res *result) endToEnd() []metric {
	w, c := &res.tim.wall, &res.tim.cpu
	n := len(w.ticks)
	d := float64(n)
	out := []metric{
		{"setup_s", median(res.setup), "s", len(res.setup), false},
		{"setup_wall_s", median(res.setupWall), "s", len(res.setupWall), true},
		{"ticks_per_cpu_s", d / c.busy.Seconds(), "1/s", n, false},
		{"ticks_per_s", d / w.busy.Seconds(), "1/s", n, true},
		{"tick_cpu_p50_us", quantile(c.ticks, 0.5), "us", n, false},
		{"tick_cpu_p99_us", quantile(c.ticks, 0.99), "us", n, false},
		{"tick_p50_us", quantile(w.ticks, 0.5), "us", n, true},
		{"tick_p99_us", quantile(w.ticks, 0.99), "us", n, true},
		{"boundary_cpu_p50_ms", median(c.boundary), "ms", len(c.boundary), false},
		{"boundary_p50_ms", median(w.boundary), "ms", len(w.boundary), true},
		{"dr_cpu_p50_ms", median(c.dr), "ms", len(c.dr), false},
		{"dr_p50_ms", median(w.dr), "ms", len(w.dr), true},
		{"allocs_per_tick", float64(res.after.mallocs-res.before.mallocs) / d, "count", n, false},
		{"alloc_kb_per_tick", float64(res.after.bytes-res.before.bytes) / 1024 / d, "KiB", n, false},
		{"heap_live_p50_mb", median(res.heapLive), "MB", len(res.heapLive), false},
		{"rss_peak_mb", peakRSSMB(), "MB", 1, true},
	}
	return append(out, res.rec.q.metrics()...)
}

func (res *result) describe() string {
	return fmt.Sprintf("ticks=%d attempted=%d failed=%d", len(res.tim.wall.ticks), res.attempted, res.failed)
}
