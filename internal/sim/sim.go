// Package sim is the deterministic discrete-event substrate that stands
// in for the paper's QNX Neutrino testbed. It models preemptive
// processors under virtual time: jobs arrive under UAM, execute compute
// and shared-object access segments, acquire/release locks (lock-based
// mode) or commit/retry (lock-free mode), are aborted when their critical
// times expire (§3.5), and are dispatched by a pluggable scheduler whose
// decision cost — measured in charged operations — is converted into
// virtual scheduling overhead occupying the CPU.
//
// One event-loop kernel (kernel.go) runs under two dispatch policies:
// Engine, the paper's single processor, and GlobalEngine (global.go),
// M processors sharing one ready queue (§7 future work).
//
// Why a simulator: the paper's claims are statements about scheduling
// event sequences (who preempts whom, how many retries an access suffers,
// how overhead scales with the ready-queue length), not about wall-clock
// physics. A Go process cannot provide RTOS priorities (the runtime
// scheduler and GC preempt arbitrarily), so real time would add noise
// without adding fidelity; virtual time gives exact, reproducible event
// interleavings. Real atomics-based objects are measured separately in
// internal/lockfree benchmarks.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// Mode selects the synchronization substrate.
type Mode int

// Synchronization modes.
const (
	// LockBased serializes object accesses with locks; lock and unlock
	// requests are scheduling events (§3).
	LockBased Mode = iota
	// LockFree lets accesses run optimistically; the only scheduling
	// events are job arrivals and departures (§4.1), and a preempted
	// access retries on resume.
	LockFree
)

// String renders the mode.
func (m Mode) String() string {
	if m == LockFree {
		return "lock-free"
	}
	return "lock-based"
}

// ErrConfig reports an invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid config")

// Config describes one simulation run.
type Config struct {
	Tasks     []*task.Task
	Scheduler sched.Scheduler
	Mode      Mode

	// R and S are the lock-based and lock-free per-access costs (the r
	// and s of §5). The mode in force picks which one applies.
	R, S rtime.Duration

	// OpCost is the virtual time (in ticks, i.e. µs) charged per
	// scheduler operation. Zero models the "ideal" scheduler of Fig 9.
	OpCost float64

	Horizon rtime.Time

	// ArrivalKind and Seed drive the per-task UAM generators.
	ArrivalKind uam.Kind
	Seed        int64

	// Arrivals, when non-nil, replaces generated arrivals with explicit
	// per-task traces (index-aligned with Tasks; missing/short entries
	// mean no arrivals for that task). Each trace must be sorted and
	// within the horizon; UAM conformance is the caller's responsibility
	// (validate with uam.CheckTrace when it matters — tests deliberately
	// construct off-model scenarios).
	Arrivals []uam.Trace

	// Observer, when non-nil, receives a trace event for every
	// scheduling-relevant state change (arrivals, dispatches, blocks,
	// commits, retries, completions, aborts) plus one SchedPass per
	// scheduler invocation. If the Scheduler implements
	// SetObserver(func(trace.Event)) — as RUA does for its
	// FeasOK/FeasFail events — the engine wires it to the same observer
	// (and clears it when Observer is nil, so reused scheduler instances
	// never leak events to a previous run's recorder).
	Observer func(trace.Event)

	// ConservativeRetry selects retry accounting: true re-runs a
	// preempted lock-free access whenever any other job was dispatched in
	// between (the adversary Theorem 2 bounds); false retries only when a
	// conflicting commit actually landed on the same object.
	ConservativeRetry bool

	// Fault, when active, injects deterministic faults (internal/fault):
	// arrival jitter/bursts applied to the generated or explicit traces,
	// per-job execution overruns, phantom-writer CAS failures on
	// lock-free commits, and transient CPU stalls at scheduler passes.
	// A nil or inactive plan leaves the run bit-for-bit identical to one
	// without the field.
	Fault *fault.Plan

	// Stoch, when active, overlays the seeded stochastic-scheduler mode
	// (internal/stoch): dispatches are force-preempted after a randomly
	// drawn quantum, and a scheduling pass occasionally replaces the
	// deterministic scheduler's pick with a uniformly random runnable
	// job. Every decision is a pure hash of (plan seed, StochCPU,
	// virtual tick); a nil or inactive plan leaves the run bit-for-bit
	// identical to one without the field.
	Stoch *stoch.Plan

	// StochCPU is the processor coordinate folded into every stochastic
	// decision hash — 0 for standalone uniprocessor runs; the
	// partitioned engine sets it to the partition index so distinct
	// partitions draw independent decisions from one shared plan.
	StochCPU int
}

// Result aggregates a finished run.
type Result struct {
	Jobs []*task.Job // every job released before the horizon

	Arrivals    int64
	Completions int64
	Aborts      int64

	SchedInvocations int64
	SchedOps         int64
	LockEvents       int64
	CtxSwitches      int64
	Retries          int64 // Σ per-job lock-free retries

	ExecTime    rtime.Duration // CPU time spent executing jobs
	Overhead    rtime.Duration // CPU time spent in the scheduler
	HandlerTime rtime.Duration // CPU time spent in abort handlers

	// AccessTime is the summed effective object-access latency: from a
	// job's first arrival at an access boundary to the access's commit,
	// including blocking, preemption, and retries. AccessTime/Accesses is
	// the measured r (lock-based) or s (lock-free) of Fig 8.
	AccessTime rtime.Duration
	Accesses   int64

	// Fault-injection accounting; all zero on fault-free runs.
	FaultArrivals int64 // jobs whose release was jittered or injected
	FaultOverruns int64 // jobs carrying hidden execution demand
	FaultRetries  int64 // lock-free retries forced by phantom writers
	FaultStalls   int64 // scheduler passes hit by a transient stall
	SchedAborts   int64 // jobs aborted by scheduler decision (sheds, deadlock victims)

	StallTime rtime.Duration // CPU time lost to injected stalls

	Horizon rtime.Time
	Err     error
}

// Busy returns the total CPU time consumed: job execution, scheduler
// overhead, abort handlers, and injected stalls.
func (r Result) Busy() rtime.Duration {
	return r.ExecTime + r.Overhead + r.HandlerTime + r.StallTime
}

// Utilization returns Busy divided by the horizon, the processor's
// long-run utilization over the run.
func (r Result) Utilization() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Busy()) / float64(r.Horizon)
}

// Engine executes one configured uniprocessor run: the kernel's event
// loop under the uniprocessor dispatch policy. Each pass dispatches the
// scheduler's single pick after its overhead; abort handlers occupy the
// processor for the task's AbortCost; a preempted lock-free access
// retries at its next dispatch (conservatively after any intervening
// dispatch, or precisely only after a conflicting commit).
type Engine struct {
	kernel
	pending *task.Job // the last pass's pick, dispatched by evDispatch
	lastRun *task.Job
}

// New builds an engine, pre-generating all UAM arrivals over the horizon.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("%w: no scheduler", ErrConfig)
	}
	if cfg.Mode == LockFree {
		for _, t := range cfg.Tasks {
			if t.UsesExplicitSections() {
				return nil, fmt.Errorf("%w: task %d uses explicit Lock/Unlock sections, which the lock-free model excludes (§2)", ErrConfig, t.ID)
			}
		}
	}
	e := &Engine{}
	if err := e.init(cfg, 1, false, cfg.Scheduler); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes the simulation to the horizon and returns the result.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *Engine) Run() Result {
	for e.StepNext() {
	}
	return e.Finish()
}

// StepNext processes exactly one event and reports whether the run can
// continue. Observer emissions of the processed event all carry its
// virtual time, so repeatedly calling StepNext yields an event stream
// nondecreasing in Event.At.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *Engine) StepNext() bool {
	ev, resched, ok := e.step()
	if !ok {
		return false
	}
	switch ev.kind {
	case evCritical:
		if !ev.job.Done() && ev.job.State != task.Aborting {
			e.beginAbort(ev.job)
			resched = true
		}
	case evAbortDone:
		j := ev.job
		if j.State == task.Aborting {
			j.State = task.Aborted
			e.res.ReleaseAll(j)
			e.removeLive(j)
			e.res1.Aborts++
			e.emit(e.now, trace.AbortDone, j, -1, 0)
			resched = true // departure is a scheduling event
		}
	case evDispatch:
		e.dispatchNow(e.pending)
	}
	if resched && e.fail == nil {
		e.reschedule()
	}
	return e.fail == nil
}

// beginAbort starts j's abort handler, which occupies the processor for
// the task's AbortCost after any work already queued on it.
//
//rtlint:noalloc per-event path
func (e *Engine) beginAbort(j *task.Job) {
	if j.Done() || j.State == task.Aborting {
		return
	}
	if e.running[0] == j {
		e.stop(0)
	}
	j.State = task.Aborting
	j.AbortedAt = e.now
	e.emit(e.now, trace.AbortBegin, j, -1, 0)
	e.res.Forget(j)
	start := rtime.MaxTime(e.busyUntil, e.now)
	e.busyUntil = start.Add(j.Task.AbortCost)
	e.res1.HandlerTime += j.Task.AbortCost
	e.q.push(e.busyUntil, evAbortDone, j)
}

// reschedule runs one scheduling pass over the live jobs and dispatches
// its pick, after the pass's overhead when that is non-zero.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *Engine) reschedule() {
	e.stop(0)
	e.q.disarmBoundary(0)
	w := e.world()
	d := e.cfg.Scheduler.Select(w)
	if d.Run != nil && e.cfg.Stoch.Active() {
		// Stochastic pick: with the plan's probability this pass
		// replaces the deterministic choice with a uniformly random
		// runnable job. Candidates are collected from the live set in
		// its deterministic order, so the drawn index is reproducible.
		cand := e.scratch[:0]
		for _, j := range e.live {
			if sched.Runnable(w, j) {
				//rtlint:ignore noalloc appends into the reused pick buffer; bounded by live jobs, steady capacity at warm-up
				cand = append(cand, j)
			}
		}
		if idx, ok := e.cfg.Stoch.Pick(e.cfg.StochCPU, e.now, len(cand)); ok {
			d.Run = cand[idx]
		}
		e.scratch = cand
	}
	overhead := e.charge(d.Ops, len(d.Abort))
	for _, v := range d.Abort {
		e.beginAbort(v)
	}
	e.pending = d.Run
	if e.deferDispatch(overhead) {
		return
	}
	e.dispatchNow(d.Run)
}

// dispatchNow starts j on the processor, first deciding whether an
// access it was preempted inside of retries.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *Engine) dispatchNow(j *task.Job) {
	if j == nil || j.Done() || j.State == task.Aborting {
		return
	}
	st := e.rs(j)
	if st.midAccess {
		st.midAccess = false
		retry := false
		if e.cfg.ConservativeRetry {
			retry = e.dispatchSeq > st.stopSeq
		} else if obj, in := j.InAccess(); in {
			retry = e.res.CommittedSince(obj, st.accessStart)
		}
		if retry {
			obj := -1
			if o, in := j.InAccess(); in {
				obj = o
			}
			j.RestartAccess()
			e.emit(e.now, trace.Retry, j, obj, 0)
		}
	}
	if e.cfg.Mode == LockBased {
		if obj, ok := j.PendingLock(); ok {
			switch owner := e.res.Owner(obj); {
			case owner == nil:
				if _, _, err := e.res.TryAcquire(j, obj); err != nil {
					e.failWith(err)
					return
				}
				j.PassBoundary()
				e.res1.LockEvents++
				e.emit(e.now, trace.LockAcquire, j, obj, 0)
			case owner == j:
				// Impossible by construction (the boundary is consumed on
				// grant), but harmless to tolerate.
				j.PassBoundary()
			default:
				//rtlint:ignore noalloc failure path: the run is aborting with a diagnostic
				e.failWith(fmt.Errorf("sim: scheduler %s dispatched %s, blocked at Lock(%d) held by %s",
					e.cfg.Scheduler.Name(), j.Name(), obj, owner.Name())) //rtlint:ignore noalloc failure path: the run is aborting with a diagnostic
				return
			}
		}
		if obj, ok := j.AtAccessStart(); ok {
			switch owner := e.res.Owner(obj); {
			case owner == j:
				// Holds it already (granted at the boundary event).
			case owner == nil:
				if _, _, err := e.res.TryAcquire(j, obj); err != nil {
					e.failWith(err)
					return
				}
				e.res1.LockEvents++
				e.emit(e.now, trace.LockAcquire, j, obj, 0)
			default:
				//rtlint:ignore noalloc failure path: the run is aborting with a diagnostic
				e.failWith(fmt.Errorf("sim: scheduler %s dispatched %s, blocked on object %d held by %s",
					e.cfg.Scheduler.Name(), j.Name(), obj, owner.Name())) //rtlint:ignore noalloc failure path: the run is aborting with a diagnostic
				return
			}
		}
	} else if _, ok := j.AtAccessStart(); ok {
		// About to begin a lock-free access: stamp its start.
		st.accessStart = e.now
	}
	if prev := e.lastRun; prev != nil && prev != j && !prev.Done() && prev.State != task.Aborting {
		prev.Preempts++
		e.emit(e.now, trace.Preempt, prev, -1, 0)
	}
	e.lastRun = j
	if _, ok := j.AtAccessStart(); ok {
		// Covers jobs whose very first segment is an access (they never
		// cross an access boundary inside settle).
		e.stampEntry(j, e.now)
	}
	e.start(0, j)
}

// Run is a convenience: build an engine and run it.
func Run(cfg Config) (Result, error) {
	e, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	r := e.Run()
	return r, r.Err
}
