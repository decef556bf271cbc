package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaignio"
	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Config sizes and wires a Service.
type Config struct {
	// Root is the service directory (see store): jobs, shard journals,
	// merged results and golden images all live under it.
	Root string
	// MaxShards bounds how many shard simulations run concurrently across
	// all jobs (0 = 2). Each shard additionally fans trials across its
	// job's Workers goroutines.
	MaxShards int
	// Workers is the default per-shard engine goroutine count for jobs
	// that leave Spec.Workers at 0 (0 = serial).
	Workers int
	// Obs receives service metrics (queue depth, jobs by state, shards in
	// flight, trial completions) alongside the campaign telemetry every
	// shard already emits. Nil means the service allocates its own
	// registry — the /metrics endpoint always has something to export.
	Obs obs.Sink
	// Logf, if non-nil, receives one-line operational logs (job started,
	// merged, failed...).
	Logf func(format string, args ...any)
}

// Service owns the job queue and the scheduler. One scheduler goroutine
// runs jobs strictly in ID (submission) order — queue position survives
// restarts because IDs are allocated durably — while each job's shards run
// concurrently under the MaxShards pool bound.
type Service struct {
	cfg Config
	st  *store

	mu      sync.Mutex
	jobs    map[string]*Job
	cancels map[string]chan struct{}
	ticks   map[string]*atomic.Int64

	wake     chan struct{}
	shutdown chan struct{}
	loopDone chan struct{}
	closing  sync.Once
	shardSem chan struct{}
	inFlight atomic.Int64 // shards currently simulating
}

// New opens (or creates) a service root, recovers its queue, and starts the
// scheduler. Jobs found in state running were in flight when a previous
// daemon died; their shard journals hold every completed trial, so they are
// re-queued and resume exactly where the crash left them.
func New(cfg Config) (*Service, error) {
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = 2
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	st, err := newStore(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		st:       st,
		jobs:     make(map[string]*Job),
		cancels:  make(map[string]chan struct{}),
		ticks:    make(map[string]*atomic.Int64),
		wake:     make(chan struct{}, 1),
		shutdown: make(chan struct{}),
		loopDone: make(chan struct{}),
		shardSem: make(chan struct{}, cfg.MaxShards),
	}
	jobs, err := st.listJobs()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.State == StateRunning {
			// The previous daemon died mid-job. The job record says so;
			// re-queue it durably before the scheduler can pick it up.
			j.State = StateQueued
			if err := st.saveJob(j); err != nil {
				return nil, err
			}
			s.logf("job %s: recovered from crashed daemon, re-queued", j.ID)
		}
		s.jobs[j.ID] = j
		s.ticks[j.ID] = new(atomic.Int64)
	}
	s.publishMetrics()
	go s.schedule()
	return s, nil
}

// Root returns the service directory.
func (s *Service) Root() string { return s.st.root }

// ShuttingDown returns a channel closed when Close begins, for handlers that
// stream and must wind down with the daemon.
func (s *Service) ShuttingDown() <-chan struct{} { return s.shutdown }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates, persists and enqueues a job.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	select {
	case <-s.shutdown:
		return nil, fmt.Errorf("service: shutting down, not accepting jobs")
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.st.nextID()
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:        id,
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now().UTC(),
	}
	if err := s.st.saveJob(j); err != nil {
		return nil, err
	}
	s.jobs[id] = j
	s.ticks[id] = new(atomic.Int64)
	s.publishMetricsLocked()
	s.logf("job %s: queued (%s, %d shards)", id, spec.Experiment, spec.Shards)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return s.snapshotLocked(j), nil
}

// Job returns a point-in-time copy of one job, with live progress.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return s.snapshotLocked(j), true
}

// Jobs returns point-in-time copies of every job, in ID order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.snapshotLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (s *Service) snapshotLocked(j *Job) *Job {
	c := j.clone()
	if t := s.ticks[j.ID]; t != nil {
		c.TrialsDone = t.Load()
	}
	return c
}

// Cancel stops a job: a queued job is cancelled on the spot, a running job's
// shards are interrupted (they drain, flush their journals and the job
// lands in cancelled), and a terminal job is left as it is.
func (s *Service) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: no job %s", id)
	}
	switch j.State {
	case StateQueued:
		j.State = StateCancelled
		now := time.Now().UTC()
		j.Finished = &now
		if err := s.st.saveJob(j); err != nil {
			return nil, err
		}
		s.publishMetricsLocked()
		s.logf("job %s: cancelled while queued", id)
	case StateRunning:
		if ch := s.cancels[id]; ch != nil {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
		s.logf("job %s: cancel requested, draining shards", id)
	}
	return s.snapshotLocked(j), nil
}

// Close shuts the scheduler down gracefully: the running job's shards see
// their Interrupt channel close, drain in-flight trials, flush journals, and
// the job is re-queued on disk. Close returns when the scheduler has
// stopped; a subsequent New on the same root picks the queue back up.
func (s *Service) Close() error {
	s.closing.Do(func() { close(s.shutdown) })
	<-s.loopDone
	return nil
}

// schedule is the single scheduler goroutine: pick the lowest-ID queued job,
// run it to completion (or interruption), repeat.
func (s *Service) schedule() {
	defer close(s.loopDone)
	for {
		select {
		case <-s.shutdown:
			return
		default:
		}
		id := s.nextQueued()
		if id == "" {
			select {
			case <-s.wake:
			case <-s.shutdown:
				return
			}
			continue
		}
		s.runJob(id)
	}
}

func (s *Service) nextQueued() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := ""
	for id, j := range s.jobs {
		if j.State == StateQueued && (best == "" || id < best) {
			best = id
		}
	}
	return best
}

// runJob executes one job: persist the running state (the crash marker),
// fan the shards out under the pool bound, then merge or re-queue.
func (s *Service) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.State != StateQueued {
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	if j.Started == nil {
		now := time.Now().UTC()
		j.Started = &now
	}
	cancel := make(chan struct{})
	s.cancels[id] = cancel
	ticks := s.ticks[id]
	spec := j.Spec
	if err := s.st.saveJob(j); err != nil {
		j.State = StateFailed
		j.Error = fmt.Sprintf("persisting running state: %v", err)
		s.mu.Unlock()
		return
	}
	s.publishMetricsLocked()
	s.mu.Unlock()
	s.logf("job %s: running %s (%d shards)", id, spec.Experiment, spec.Shards)

	// stop is the Interrupt channel every shard watches; it closes on
	// cancel or daemon shutdown (and harmlessly after the job finishes).
	stop := make(chan struct{})
	jobDone := make(chan struct{})
	go func() {
		defer close(stop)
		select {
		case <-cancel:
		case <-s.shutdown:
		case <-jobDone:
		}
	}()

	errs := make([]error, spec.Shards)
	var wg sync.WaitGroup
	for k := 0; k < spec.Shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			select {
			case s.shardSem <- struct{}{}:
			case <-stop:
				errs[k] = inject.ErrInterrupted
				return
			}
			defer func() { <-s.shardSem }()
			s.inFlight.Add(1)
			s.publishMetrics()
			defer func() {
				s.inFlight.Add(-1)
				s.publishMetrics()
			}()
			errs[k] = experiments.RunShardable(spec.Experiment, s.shardOptions(id, spec, k, stop, ticks))
		}(k)
	}
	wg.Wait()
	close(jobDone)

	var runErr error
	stopped := false
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, inject.ErrInterrupted):
			stopped = true
		case runErr == nil:
			runErr = err
		}
	}
	s.finishJob(id, cancel, runErr, stopped)
}

// shardOptions builds the experiments.Options for one shard of a job. Every
// field that could perturb results is either part of the spec (and thus the
// plan) or provably inert (workers, progress, obs, golden images).
func (s *Service) shardOptions(id string, spec JobSpec, k int, stop <-chan struct{}, ticks *atomic.Int64) experiments.Options {
	workers := spec.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	benches := make([]workload.Benchmark, len(spec.Benchmarks))
	for i, b := range spec.Benchmarks {
		benches[i] = workload.Benchmark(b)
	}
	trials := s.cfg.Obs.Counter("service_trials_completed_total")
	return experiments.Options{
		Seed:            spec.Seed,
		Scale:           spec.Scale,
		TrialFactor:     spec.TrialFactor,
		Benchmarks:      benches,
		Workers:         workers,
		CampaignRoot:    s.st.shardRoot(id, k),
		ShardIndex:      k,
		ShardCount:      spec.Shards,
		GoldenImageRoot: s.st.goldenRoot(),
		CompressJournal: spec.CompressJournal,
		Interrupt:       stop,
		Obs:             s.cfg.Obs,
		Progress: func(done, total int) {
			ticks.Add(1)
			trials.Inc()
		},
	}
}

// finishJob records the outcome of a run: merge on success, cancelled or
// re-queued on interruption, failed otherwise.
func (s *Service) finishJob(id string, cancel chan struct{}, runErr error, stopped bool) {
	cancelled := false
	select {
	case <-cancel:
		cancelled = true
	default:
	}

	var campaigns []string
	if runErr == nil && !stopped {
		campaigns, runErr = s.mergeJob(id)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	delete(s.cancels, id)
	now := time.Now().UTC()
	switch {
	case runErr != nil:
		j.State = StateFailed
		j.Error = runErr.Error()
		j.Finished = &now
		s.logf("job %s: failed: %v", id, runErr)
	case stopped && cancelled:
		j.State = StateCancelled
		j.Finished = &now
		s.logf("job %s: cancelled", id)
	case stopped:
		// Daemon shutdown: back to the queue, durably, so the next daemon
		// resumes it. Everything journalled so far is already on disk.
		j.State = StateQueued
		s.logf("job %s: interrupted by shutdown, re-queued", id)
	default:
		j.State = StateDone
		j.Campaigns = campaigns
		j.Finished = &now
		s.logf("job %s: done (%d campaigns merged)", id, len(campaigns))
	}
	if err := s.st.saveJob(j); err != nil && j.State != StateFailed {
		j.State = StateFailed
		j.Error = fmt.Sprintf("persisting %s state: %v", j.State, err)
		_ = s.st.saveJob(j)
	}
	s.publishMetricsLocked()
}

// mergeJob combines every campaign's shard journals into merged campaign
// directories byte-identical to what a serial one-shot run with -out would
// have written.
func (s *Service) mergeJob(id string) ([]string, error) {
	s.mu.Lock()
	shards := s.jobs[id].Spec.Shards
	s.mu.Unlock()
	roots := make([]string, shards)
	for k := range roots {
		roots[k] = s.st.shardRoot(id, k)
	}
	return campaignio.MergeRoots(s.st.mergedDir(id), roots)
}

// publishMetrics exports the queue shape to the obs registry.
func (s *Service) publishMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishMetricsLocked()
}

func (s *Service) publishMetricsLocked() {
	counts := map[JobState]int{}
	for _, j := range s.jobs {
		counts[j.State]++
	}
	o := s.cfg.Obs
	o.Gauge("service_queue_depth").Set(float64(counts[StateQueued]))
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		o.Gauge("service_jobs_" + string(st)).Set(float64(counts[st]))
	}
	o.Gauge("service_shards_in_flight").Set(float64(s.inFlight.Load()))
}
