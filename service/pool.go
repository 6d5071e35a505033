package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/latwindow"
)

// ErrClosed is returned by Submit after the pool began shutting down.
var ErrClosed = errors.New("service: pool is shut down")

// task is one unit of work executed on a pool worker. ctx is the
// submitting request's context — tasks are expected to propagate it into
// the generation pipeline (gen.GenerateFileCtx) so mid-flight cancellation
// frees the worker at the next step boundary. The worker argument exposes
// the per-worker Generator/Analyzer, already rebuilt against the current
// registry snapshot.
type task func(ctx context.Context, w *Worker) (any, error)

type job struct {
	ctx  context.Context
	fn   task
	done chan jobResult
}

type jobResult struct {
	v   any
	err error
}

// PoolConfig tunes a Pool beyond its size.
type PoolConfig struct {
	// Workers is the number of worker goroutines (min 1).
	Workers int
	// QueueSize bounds pending jobs (0 = 4×Workers).
	QueueSize int
	// MaxWaiters bounds submissions allowed to block behind a full queue.
	// 0 selects the default (2×QueueSize); a negative value disables
	// admission control entirely — every submission blocks until queue
	// space frees or its context expires (pure blocking backpressure).
	MaxWaiters int
	// OnPanic, when non-nil, observes every panic recovered on a worker.
	OnPanic func(op string, v any, stack []byte)
	// OnShed, when non-nil, observes every admission-control rejection.
	OnShed func()
	// OnAdmit, when non-nil, observes every successful enqueue (used to
	// reset shed-streak backoff).
	OnAdmit func()
}

// Pool is a bounded worker pool over the registry. Each worker owns one
// gen.Generator and one analysis.Analyzer — a Generator is not safe for
// concurrent use — while the compiled rule set and path cache are shared
// through the registry snapshot, which is safe for concurrent readers.
//
// Workers are panic-isolated: a panic inside a task (or the generator
// machinery under it) is recovered on the worker, converted into a typed
// *InternalError for the one request that hit it, and the worker resets
// its cached Generator/Analyzer and keeps serving. Submission is guarded
// by admission control when MaxWaiters >= 0 (see Submit).
type Pool struct {
	registry   *Registry
	dir        string
	jobs       chan *job
	done       chan struct{}
	wg         sync.WaitGroup
	closing    sync.Once
	maxWaiters int
	waiters    atomic.Int64
	onPanic    func(op string, v any, stack []byte)
	onShed     func()
	onAdmit    func()

	// sendMu fences job-channel sends against shutdown: Submit enqueues
	// under the read side after checking closed; Close flips closed under
	// the write side before closing done. Acquiring the write lock
	// therefore waits out every in-flight enqueue, so no job can land in
	// the queue after the workers' final drain — the window that used to
	// strand a deadline-less caller forever.
	sendMu sync.RWMutex
	closed bool

	// svcTimes is the sliding window of per-job execution times feeding
	// the deadline-aware admission check; until latwindow.MinSamples jobs
	// have run a cold pool queues rather than sheds.
	svcTimes latwindow.Window
}

// NewPoolConfig starts a pool under cfg.
func NewPoolConfig(registry *Registry, dir string, cfg PoolConfig) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = cfg.Workers * 4
	}
	if cfg.MaxWaiters == 0 {
		cfg.MaxWaiters = cfg.QueueSize * 2
	}
	p := &Pool{
		registry:   registry,
		dir:        dir,
		jobs:       make(chan *job, cfg.QueueSize),
		done:       make(chan struct{}),
		maxWaiters: cfg.MaxWaiters,
		onPanic:    cfg.OnPanic,
		onShed:     cfg.OnShed,
		onAdmit:    cfg.OnAdmit,
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// QueueDepth reports the number of submitted jobs not yet picked up by a
// worker.
func (p *Pool) QueueDepth() int { return len(p.jobs) }

// Waiters reports the number of submissions currently blocked behind a
// full queue.
func (p *Pool) Waiters() int { return int(p.waiters.Load()) }

// Submit enqueues fn and waits for its result. It fails with ctx.Err()
// when the context expires while the job is queued (the job is then
// skipped by the worker, not run) and with ErrClosed once the pool is
// shutting down.
//
// With admission control enabled (MaxWaiters >= 0), a submission that
// finds the queue full is rejected with ErrOverloaded instead of blocking
// when (a) the request's deadline is closer than the observed p99 service
// time — the job would almost surely expire in the queue, wasting the slot
// — or (b) MaxWaiters submissions are already blocked. Shedding at the
// door keeps queue wait bounded and the daemon responsive under overload
// rather than letting latency grow without limit.
func (p *Pool) Submit(ctx context.Context, fn task) (any, error) {
	j := &job{ctx: ctx, fn: fn, done: make(chan jobResult, 1)}
	if err := p.enqueue(ctx, j); err != nil {
		return nil, err
	}
	select {
	case r := <-j.done:
		return r.v, r.err
	case <-ctx.Done():
		// The worker may still run (or skip) the job; the buffered done
		// channel lets it complete without a receiver.
		return nil, ctx.Err()
	}
}

func (p *Pool) enqueue(ctx context.Context, j *job) error {
	// Blocking on a full queue while holding the read lock is safe: the
	// workers keep consuming until done closes, and done cannot close while
	// this read lock is held (Close needs the write lock first).
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.jobs <- j:
		if p.onAdmit != nil {
			p.onAdmit()
		}
		return nil
	default: // queue saturated
	}
	if p.maxWaiters >= 0 {
		if dl, ok := ctx.Deadline(); ok {
			if p99, have := p.svcTimes.P99(); have && time.Until(dl) < p99 {
				if p.onShed != nil {
					p.onShed()
				}
				return fmt.Errorf("service: queue full and deadline %v away is under the observed p99 service time %v: %w",
					time.Until(dl).Round(time.Millisecond), p99.Round(time.Millisecond), ErrOverloaded)
			}
		}
		if p.waiters.Add(1) > int64(p.maxWaiters) {
			p.waiters.Add(-1)
			if p.onShed != nil {
				p.onShed()
			}
			return fmt.Errorf("service: %d submissions already waiting behind a full queue: %w", p.maxWaiters, ErrOverloaded)
		}
		defer p.waiters.Add(-1)
	}
	select {
	case p.jobs <- j:
		if p.onAdmit != nil {
			p.onAdmit()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close initiates graceful drain: no new submissions are accepted, queued
// jobs are completed, then workers exit. Close blocks until the drain is
// finished and is safe to call more than once.
func (p *Pool) Close() {
	p.closing.Do(func() {
		// Order matters: closed is flipped under the write lock BEFORE done
		// closes, so every enqueue either completed first (and the workers'
		// final drain runs it) or observes closed and fails with ErrClosed.
		p.sendMu.Lock()
		p.closed = true
		p.sendMu.Unlock()
		close(p.done)
	})
	p.wg.Wait()
	// Safety net: with the sendMu fence no job can be enqueued after the
	// workers' final drain, so this loop is normally empty; fail anything
	// here rather than leaving a caller to wait out its context deadline.
	for {
		select {
		case j := <-p.jobs:
			j.done <- jobResult{err: ErrClosed}
		default:
			return
		}
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	w := &Worker{pool: p}
	for {
		select {
		case j := <-p.jobs:
			w.run(j)
		case <-p.done:
			// Drain whatever was queued before shutdown began.
			for {
				select {
				case j := <-p.jobs:
					w.run(j)
				default:
					return
				}
			}
		}
	}
}

// Worker is the per-goroutine execution state handed to tasks.
type Worker struct {
	pool     *Pool
	snap     *Snapshot
	base     *gen.Generator
	analyzer *analysis.Analyzer
}

func (w *Worker) run(j *job) {
	if err := j.ctx.Err(); err != nil {
		j.done <- jobResult{err: err}
		return
	}
	if err := w.refresh(); err != nil {
		j.done <- jobResult{err: err}
		return
	}
	start := time.Now()
	v, err := w.exec(j)
	w.pool.svcTimes.Observe(time.Since(start))
	j.done <- jobResult{v: v, err: err}
}

// exec runs the job's task under the worker's panic guard: a panic in the
// task — or injected at the worker-exec fault point — is converted into a
// typed *InternalError for this one request, the worker's cached
// Generator/Analyzer are discarded (their internal state may be mid-
// mutation), and the worker goroutine survives to serve the next job.
func (w *Worker) exec(j *job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			w.snap, w.base, w.analyzer = nil, nil, nil
			if w.pool.onPanic != nil {
				w.pool.onPanic("worker-exec", r, stack)
			}
			v, err = nil, &InternalError{Op: "worker-exec", Value: r, Stack: stack}
		}
	}()
	if ferr := faultinject.Fire(faultinject.PointWorkerExec); ferr != nil {
		return nil, &InternalError{Op: "worker-exec", Value: ferr}
	}
	return j.fn(j.ctx, w)
}

// refresh rebuilds the worker's Generator (and drops its Analyzer) when
// the registry snapshot changed since the last job. In the steady state
// this is a single pointer comparison.
func (w *Worker) refresh() error {
	snap := w.pool.registry.Snapshot()
	if w.snap == snap && w.base != nil {
		return nil
	}
	base, err := gen.New(snap.Rules, w.pool.dir, gen.Options{Paths: snap.Paths, Plans: snap.Plans})
	if err != nil {
		return err
	}
	w.snap = snap
	w.base = base
	w.analyzer = nil
	return nil
}

// Snapshot returns the registry snapshot the worker is currently built
// against.
func (w *Worker) Snapshot() *Snapshot { return w.snap }

// Generator returns a Generator over the worker's snapshot running under
// opts (the shared path and plan caches are always wired in). The
// returned Generator is valid for the duration of the current task only.
func (w *Worker) Generator(opts gen.Options) *gen.Generator {
	opts.Paths = w.snap.Paths
	opts.Plans = w.snap.Plans
	return w.base.WithOptions(opts)
}

// Analyzer returns the worker's misuse analyzer, built lazily on first
// use after each snapshot change.
func (w *Worker) Analyzer() (*analysis.Analyzer, error) {
	if w.analyzer == nil {
		an, err := analysis.New(w.snap.Rules, w.pool.dir, analysis.Options{})
		if err != nil {
			return nil, err
		}
		w.analyzer = an
	}
	return w.analyzer, nil
}
