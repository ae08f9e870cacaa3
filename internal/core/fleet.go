package core

import (
	"fmt"
	"sync"

	"repro/internal/par"
)

// coreFleetTask fans one StepAll over the pool; index i steps controller i
// with its demand vector. Reused so the dispatch itself allocates nothing.
type coreFleetTask struct {
	cs      []*Controller
	demands [][]float64
	tels    []*Telemetry
	errs    []error
}

func (t *coreFleetTask) Do(start, end int) {
	for i := start; i < end; i++ {
		t.tels[i], t.errs[i] = t.cs[i].Step(t.demands[i])
	}
}

var coreFleetTaskPool = sync.Pool{New: func() any { return new(coreFleetTask) }}

// StepAll advances every controller one fast-loop period with its matching
// demand vector, fanning the fleet out over p (or stepping serially when p
// is nil), and writes tels[i], errs[i] per tenant. All controllers step
// even when some fail; the returned error is the lowest-index failure —
// deterministic regardless of pool interleaving — or nil.
//
// cs, demands, tels and errs must have equal length and the controllers
// must be pairwise distinct: a Controller is not safe for concurrent use
// (it owns its MPC's unsynchronized QP workspace and scratch — see
// qp.Workspace), so one instance may appear in a fleet only once; with
// that, and the pool dispatching each index exactly once, the fan-out is
// race-free without locking in the step path. Telemetry records follow
// Step's ownership rules.
func StepAll(p *par.Pool, cs []*Controller, demands [][]float64, tels []*Telemetry, errs []error) error {
	if len(demands) != len(cs) || len(tels) != len(cs) || len(errs) != len(cs) {
		return fmt.Errorf("fleet slices disagree: %d controllers, %d demand vectors, %d telemetry slots, %d error slots: %w",
			len(cs), len(demands), len(tels), len(errs), ErrBadConfig)
	}
	for i, c := range cs {
		if c == nil {
			return fmt.Errorf("controller %d is nil: %w", i, ErrBadConfig)
		}
		for j := i + 1; j < len(cs); j++ {
			if cs[j] == c {
				return fmt.Errorf("controllers %d and %d are the same *Controller; not safe for concurrent use: %w",
					i, j, ErrBadConfig)
			}
		}
	}
	t := coreFleetTaskPool.Get().(*coreFleetTask)
	t.cs, t.demands, t.tels, t.errs = cs, demands, tels, errs
	p.Run(len(cs), t)
	t.cs, t.demands, t.tels, t.errs = nil, nil, nil, nil
	coreFleetTaskPool.Put(t)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("controller %d: %w", i, err)
		}
	}
	return nil
}
