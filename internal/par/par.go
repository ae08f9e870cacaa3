// Package par is the bounded worker-pool substrate under the fleet-step
// API (core.StepAll). One Pool owns a fixed set of goroutines — sized by
// GOMAXPROCS by default — and dispatches half-open index ranges of a loop
// across them in chunks.
//
// The pool exists for loops whose iterations are independent and whose
// per-iteration work is itself deterministic: a dispatch reorders work
// ACROSS iterations but never within one, so a loop over independent
// tenants is bit-identical however many workers run it (DESIGN.md §3.12
// has the full determinism contract).
//
// Steady-state discipline matches the rest of the fast loop: every channel
// and buffer a dispatch touches is allocated once at construction, so
// Pool.Run performs zero heap allocations (pinned by TestPoolRunAllocFree)
// and is safe to call from //lint:hotpath code.
//
// Concurrency contract:
//
//   - Run serializes itself: one dispatch owns the workers at a time. A
//     Run that finds the pool busy — including a Run issued from inside a
//     worker of the same pool — executes the task inline on the calling goroutine instead of
//     queueing. Results are identical either way, so the fallback is a
//     scheduling decision, not a semantic one, and the pool can never
//     deadlock on itself.
//   - Shutdown is context-aware: cancelling the context passed to NewPool
//     (or calling Close) stops the workers at the next dispatch boundary.
//     An in-flight Run always completes; Runs after shutdown execute
//     inline. Close is idempotent and safe to call concurrently with Run.
//   - A panic in a task chunk does not strand sibling workers: the worker
//     recovers, the barrier completes, and Run re-panics with the original
//     panic value on the calling goroutine once every worker has parked.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one parallelizable loop body: Do processes the half-open index
// range [start, end). Do is called concurrently from multiple goroutines
// with disjoint ranges and must not retain the range beyond the call.
//
// Hot paths implement Task on a reusable struct (a pointer conversion to
// the interface does not allocate); TaskFunc is the convenience adapter
// for cold paths and tests.
type Task interface {
	Do(start, end int)
}

// TaskFunc adapts an ordinary function to the Task interface. Converting a
// closure at a call site allocates; hot paths should implement Task on a
// reusable struct instead.
type TaskFunc func(start, end int)

// Do implements Task.
func (f TaskFunc) Do(start, end int) { f(start, end) }

// chunksPerWorker oversubscribes the index space so workers that finish
// early steal the tail instead of idling: each dispatch is cut into about
// this many chunks per worker (never below one index per chunk).
const chunksPerWorker = 4

// Pool is a fixed-size worker pool with reusable dispatch state. The zero
// value is not usable; construct with NewPool. A Pool moves by pointer.
//
//lint:nocopy
type Pool struct {
	workers int
	wake    []chan struct{} // per-worker dispatch signal, cap 1
	quit    chan struct{}   // closed by Close; workers park on it
	done    chan struct{}   // cap-1 reusable barrier, signalled by the last worker
	sem     chan struct{}   // cap-1 dispatch token; channel (not mutex) so no lock is held across channel ops
	wg      sync.WaitGroup
	stopped atomic.Bool
	stopCtx func() bool // deregisters the context.AfterFunc shutdown hook

	// Per-dispatch state, written by Run before the wake sends (the channel
	// edge publishes it to the workers) and read back only after the done
	// barrier.
	task   Task
	n      int
	chunk  int
	next   atomic.Int64
	remain atomic.Int64
	recovd atomic.Pointer[panicRecord]
}

// panicRecord carries the first panic a dispatch's workers recovered.
type panicRecord struct{ val any }

// NewPool starts a pool of the given number of workers; workers <= 0 means
// runtime.GOMAXPROCS(0). The workers park until a Run dispatches work and
// exit when ctx is cancelled or Close is called, whichever comes first.
func NewPool(ctx context.Context, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		wake:    make([]chan struct{}, workers),
		quit:    make(chan struct{}),
		done:    make(chan struct{}, 1),
		sem:     make(chan struct{}, 1),
	}
	p.wg.Add(workers)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(p.wake[i])
	}
	p.stopCtx = context.AfterFunc(ctx, p.Close)
	return p
}

// Workers returns the fixed worker count the pool was built with.
func (p *Pool) Workers() int { return p.workers }

// Stopped reports whether the pool has shut down (Close was called or the
// construction context was cancelled). A stopped pool still accepts Run —
// tasks just execute inline on the caller.
func (p *Pool) Stopped() bool { return p.stopped.Load() }

// worker is one pool goroutine: it parks on its wake channel between
// dispatches and exits when the quit channel closes.
//
//lint:nocx worker lifetime is bounded by the pool's quit channel, which Close/ctx-cancel closes
func (p *Pool) worker(wake chan struct{}) {
	defer p.wg.Done()
	for {
		select {
		case <-wake:
			p.runChunks()
		case <-p.quit:
			return
		}
	}
}

// runChunks claims and executes chunks of the current dispatch until the
// index space is exhausted, then joins the barrier. A panicking task chunk
// is recovered here — the first panic value is kept for Run to re-throw —
// so one bad chunk can never strand the sibling workers or the dispatcher.
//
//lint:nocx barrier send wakes the dispatching Run, which is already bounded by the pool lifetime
func (p *Pool) runChunks() {
	t, n, chunk := p.task, p.n, p.chunk
	defer func() {
		if r := recover(); r != nil {
			p.recovd.CompareAndSwap(nil, &panicRecord{val: r})
		}
		if p.remain.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}()
	for {
		start := int(p.next.Add(int64(chunk))) - chunk
		if start >= n {
			return
		}
		end := start + chunk
		if end > n {
			end = n
		}
		t.Do(start, end)
	}
}

// Run executes t over the index range [0, n), cut into chunks and spread
// across the pool's workers, and returns when every index has been
// processed. It performs no heap allocations in steady state.
//
// Run executes t inline on the calling goroutine — same results, no
// concurrency — when n is too small to split, the pool is stopped, or the
// pool is busy with another dispatch (including a Run issued from inside
// one of this pool's own workers; see the package comment).
//
// If a task chunk panicked, Run re-panics with the first recovered value
// after all workers have finished their remaining chunks.
//
//lint:nocx a dispatch blocks only on the pool's own workers, whose lifetime the pool ctx/Close bounds
func (p *Pool) Run(n int, t Task) {
	if n <= 0 {
		return
	}
	if p == nil || n < 2 || p.stopped.Load() {
		t.Do(0, n)
		return
	}
	select {
	case p.sem <- struct{}{}:
	default:
		// Busy: another dispatch owns the workers (possibly one this very
		// goroutine is serving). Inline execution is bit-identical.
		t.Do(0, n)
		return
	}
	if p.stopped.Load() {
		// Close won the race for the token environment: workers are gone.
		<-p.sem
		t.Do(0, n)
		return
	}
	chunk := n / (p.workers * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	woken := (n + chunk - 1) / chunk
	if woken > p.workers {
		woken = p.workers
	}
	p.task, p.n, p.chunk = t, n, chunk
	p.next.Store(0)
	p.remain.Store(int64(woken))
	for _, w := range p.wake[:woken] {
		w <- struct{}{}
	}
	<-p.done
	p.task = nil
	<-p.sem
	if rec := p.recovd.Swap(nil); rec != nil {
		panic(rec.val)
	}
}

// RunFunc is Run with a plain function; the closure conversion allocates,
// so hot paths use Run with a reusable Task instead.
func (p *Pool) RunFunc(n int, fn func(start, end int)) { p.Run(n, TaskFunc(fn)) }

// Close stops the workers and waits for them to exit. An in-flight Run
// completes first; Runs issued after Close execute inline. Close is
// idempotent and also runs automatically when the NewPool context is
// cancelled.
//
//lint:nocx shutdown entry point: it bounds the workers' lifetime rather than needing its own ctx
func (p *Pool) Close() {
	p.sem <- struct{}{} // wait out any in-flight dispatch
	if p.stopped.CompareAndSwap(false, true) {
		close(p.quit)
		p.wg.Wait()
	}
	<-p.sem
	if p.stopCtx != nil {
		p.stopCtx()
	}
}
