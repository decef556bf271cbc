// Campaign engine: deterministic fan-out of injection trials across a
// worker pool.
//
// The paper's campaigns are statistical — thousands of independent trials
// per benchmark — and every trial forks its own corrupted machine, so the
// work is embarrassingly parallel. What is NOT trivially parallel is the
// methodology's determinism contract: a campaign must be a pure function of
// its configuration, bit-identical however many workers run it. Two design
// moves make that hold:
//
//  1. All random decisions are pre-drawn serially. The single seeded
//     rand.Rand is consumed on the dispatching goroutine, in exactly the
//     order the serial engine consumed it, before any trial runs. Workers
//     never touch an RNG (the restorelint determinism analyzer flags a
//     *rand.Rand captured by a goroutine closure for this reason).
//
//  2. Every trial writes into a pre-sized result slot indexed by its
//     (point, trial) coordinates. Completion order affects nothing; no
//     locks are involved; the race detector sees only disjoint writes.
//
// Golden-run recording stays on the dispatching goroutine — the golden
// simulators only move forward and cannot be shared — while trials fan out
// behind it. The µarch engine records each point's continuation; the VM
// engine extends one campaign-wide trace that a point's trials read as a
// window. A sync.Pool of clones (reset from the master via
// Pipeline.ResetFrom / Memory.CopyFrom) recycles the per-trial fork
// allocations that otherwise dominate the campaign's profile. The serial
// engine runs every trial inline through the same submit path, so its
// telemetry (worker-busy time) matches the parallel engine's.
package inject

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// ErrNoEligibleBits is returned when a campaign's targeting constraints
// leave no bits to flip (e.g. LatchesOnly over a state space with no latch
// bits). It is a configuration error, reported instead of letting the
// uniform bit sampler reject forever.
var ErrNoEligibleBits = errors.New("inject: no bits eligible for injection under the campaign's targeting constraints")

// engine dispatches trial closures. With workers <= 1 it degenerates to
// running every task inline on the dispatching goroutine, which preserves
// the serial engine exactly; with N > 1 it fans tasks out over N goroutines.
// The bounded task channel doubles as backpressure: the dispatcher stalls
// rather than piling up cloned pipelines (and pinned golden traces) faster
// than the workers retire them.
type engine struct {
	tasks chan func()
	wg    sync.WaitGroup

	// completed counts finished trials for progress reporting; it never
	// influences results.
	completed atomic.Int64

	// Write-only telemetry (nil handles when the campaign runs without a
	// sink): wall-clock time workers spend inside trials, and the queue
	// depth seen at each submit — together they show whether the dispatcher
	// (golden-trace recording) or the workers are the bottleneck.
	busy  *obs.Timer
	depth *obs.Hist
}

// newEngine returns an engine with the given worker count (<= 1 = serial).
// sink may be nil; prefix namespaces the engine's metrics per campaign type
// (e.g. "campaign_uarch" yields campaign_uarch_worker_busy).
func newEngine(workers int, sink obs.Sink, prefix string) *engine {
	e := &engine{
		busy:  sink.Timer(prefix + "_worker_busy"),
		depth: sink.Hist(prefix + "_queue_depth"),
	}
	if workers <= 1 {
		return e
	}
	// Workers capture the channel value, not the field: wait() nils the
	// field on the dispatching goroutine, which a late-starting worker
	// must not observe.
	tasks := make(chan func(), 2*workers)
	e.tasks = tasks
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for t := range tasks {
				sw := e.busy.Start()
				t()
				sw.Stop()
			}
		}()
	}
	return e
}

// submit runs t inline (serial engine) or enqueues it for a worker.
func (e *engine) submit(t func()) {
	if e.tasks == nil {
		sw := e.busy.Start()
		t()
		sw.Stop()
		return
	}
	e.depth.Observe(int64(len(e.tasks)))
	e.tasks <- t
}

// wait blocks until every submitted task has finished. It must be called
// exactly from the dispatching goroutine, and is safe to call more than
// once (error paths drain the pool before returning).
func (e *engine) wait() {
	if e.tasks == nil {
		return
	}
	close(e.tasks)
	e.tasks = nil
	e.wg.Wait()
}

// done records one finished trial and invokes the progress callback, if
// any. Under a parallel engine the callback runs on worker goroutines and
// must be safe for concurrent use.
func (e *engine) done(progress func(done, total int), total int) {
	n := e.completed.Add(1)
	if progress != nil {
		progress(int(n), total)
	}
}

// clonePool recycles per-trial pipeline forks. acquire must be called from
// the dispatching goroutine (it reads the master); release may be called
// from any worker. The hit/miss counters (nil without a sink) expose the
// recycling rate: a high miss count means workers are not returning clones
// fast enough and the pool is allocating fresh ones.
type clonePool struct {
	pool   sync.Pool
	hits   *obs.Counter
	misses *obs.Counter
}

func (cp *clonePool) acquire(master *pipeline.Pipeline) *pipeline.Pipeline {
	if v := cp.pool.Get(); v != nil {
		cp.hits.Inc()
		f := v.(*pipeline.Pipeline)
		f.ResetFrom(master)
		return f
	}
	cp.misses.Inc()
	return master.Clone()
}

func (cp *clonePool) release(f *pipeline.Pipeline) { cp.pool.Put(f) }
