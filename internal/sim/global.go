package sim

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
)

// The global multiprocessor policy is the second half of the paper's §7
// future work (internal/multi covers the partitioned half). M identical
// processors share one ready queue; at every scheduling event the
// scheduler ranks all live jobs (sched.TopK) and the M highest-priority
// runnable jobs execute in parallel, with migration allowed.
//
// The interesting new physics is true parallel object conflict, which
// cannot happen on one processor: two jobs can be INSIDE the same
// lock-free object's access simultaneously, so optimistic execution must
// validate at commit time — a job reaching the end of its access re-runs
// it if any conflicting commit landed on the object since the access
// began (exactly a failed CAS). Retries therefore occur without any
// preemption, which is why the paper's uniprocessor Theorem 2 bound does
// not transfer to global scheduling and why the paper leaves
// multiprocessors as future work; the globalcpu experiment quantifies
// that gap empirically.
//
// Model simplifications relative to the uniprocessor policy (documented,
// validated): abort handlers are instantaneous (AbortCost must be 0),
// explicit Lock/Unlock sections are unsupported, and scheduler overhead
// is modelled as a global dispatch latency.

// GlobalEngine executes one global multiprocessor run: the kernel's
// event loop under the global dispatch policy.
type GlobalEngine struct {
	kernel
	sched   sched.TopK
	pending []*task.Job // the last pass's ranking, applied by evDispatch
	// epoch names the set applyAssignment is building: a live job is in
	// it when its run state's mark equals epoch. Each set takes a new
	// epoch, so no set is ever cleared.
	epoch uint32
}

// NewGlobal builds a global multiprocessor engine that runs cfg on cpus
// processors. The fields of cfg mean what they mean to New, with these
// differences:
//
//   - cfg.Scheduler must implement sched.TopK: every pass ranks the live
//     jobs and the top cpus of them run.
//   - ConservativeRetry must be false: the global policy always
//     validates lock-free accesses at commit time.
//   - Observer events carry the dispatching processor in Event.CPU, or
//     -1 for events bound to no processor (arrivals, aborts, scheduler
//     passes: the global scheduler runs on no particular CPU). The
//     stream is nondecreasing in Event.At, since every emission is
//     stamped at the engine event being processed, so online sinks
//     (internal/obs) fold it without buffering or sorting.
//   - Fault's phantom-writer CAS failures compose with the real
//     commit-time validation: a commit must survive both to land.
//   - Stoch force-preempts each per-CPU dispatch after a drawn quantum,
//     hashed with the dispatching CPU, and a picked pass shuffles the
//     scheduler's ranked list, hashed with CPU coordinate -1 (the
//     coordinate of unbound trace events). StochCPU must be 0.
func NewGlobal(cfg Config, cpus int) (*GlobalEngine, error) {
	if cpus < 1 {
		return nil, fmt.Errorf("%w: %d CPUs", ErrConfig, cpus)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topk, ok := cfg.Scheduler.(sched.TopK)
	if !ok {
		return nil, fmt.Errorf("%w: scheduler %T does not rank jobs (sched.TopK)", ErrConfig, cfg.Scheduler)
	}
	if cfg.ConservativeRetry {
		return nil, fmt.Errorf("%w: conservative retry; the global engine validates at commit time", ErrConfig)
	}
	if cfg.StochCPU != 0 {
		return nil, fmt.Errorf("%w: StochCPU %d; the global engine hashes with its own CPUs", ErrConfig, cfg.StochCPU)
	}
	for _, t := range cfg.Tasks {
		if t.AbortCost != 0 {
			return nil, fmt.Errorf("%w: task %d has AbortCost %v; the global engine models instantaneous handlers", ErrConfig, t.ID, t.AbortCost)
		}
		if t.UsesExplicitSections() {
			return nil, fmt.Errorf("%w: task %d uses explicit Lock/Unlock sections (unsupported by the global engine)", ErrConfig, t.ID)
		}
	}
	e := &GlobalEngine{sched: topk}
	if err := e.init(cfg, cpus, true, topk); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes to the horizon.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *GlobalEngine) Run() Result {
	for e.StepNext() {
	}
	return e.Finish()
}

// StepNext processes exactly one event and reports whether the run can
// continue, with the same ordering guarantee as Engine.StepNext.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *GlobalEngine) StepNext() bool {
	ev, resched, ok := e.step()
	if !ok {
		return false
	}
	switch ev.kind {
	case evCritical:
		if ev.job != nil && !ev.job.Done() {
			e.abort(ev.job)
			resched = true
		}
	case evDispatch:
		e.applyAssignment(e.pending)
	}
	if resched && e.fail == nil {
		e.reschedule()
	}
	return e.fail == nil
}

// abort retires j at once: handlers are instantaneous in this model
// (AbortCost must be 0), so begin and done coincide.
//
//rtlint:noalloc per-event path
func (e *GlobalEngine) abort(j *task.Job) {
	for cpu, r := range e.running {
		if r == j {
			// Marking the abort first keeps stop from reporting a
			// spurious preemption for the departing job.
			j.State = task.Aborting
			e.stop(cpu)
		}
	}
	j.State = task.Aborted
	j.AbortedAt = e.now
	e.emit(e.now, trace.AbortBegin, j, -1, -1)
	e.emit(e.now, trace.AbortDone, j, -1, -1)
	e.res.ReleaseAll(j)
	e.removeLive(j)
	e.res1.Aborts++
}

// reschedule ranks the live jobs and assigns the top M to the CPUs,
// after the pass's overhead when that is non-zero.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *GlobalEngine) reschedule() {
	w := e.world()
	var ranked, aborts []*task.Job
	var ops int64
	if ab, ok := e.sched.(sched.TopKAborter); ok {
		// Schedulers with abort decisions (RUA's admission-control
		// shedding) surface them here; plain TopK schedulers cannot.
		ranked, aborts, ops = ab.SelectTopKAbort(w, len(e.live))
	} else {
		ranked, ops = e.sched.SelectTopK(w, len(e.live))
	}
	if len(ranked) > 1 {
		// Stochastic pick, ranked-dispatch form: a picked pass runs a
		// deterministic Fisher–Yates over a copy of the ranking, so the
		// top-M slots become a uniform random draw from the live set.
		if _, ok := e.cfg.Stoch.Pick(-1, e.now, len(ranked)); ok {
			//rtlint:ignore noalloc copies into the reused shuffle buffer; bounded by live jobs, steady capacity at warm-up
			ranked = append(e.scratch[:0], ranked...)
			e.scratch = ranked
			for i := len(ranked) - 1; i > 0; i-- {
				k := e.cfg.Stoch.Swap(-1, e.now, i)
				ranked[i], ranked[k] = ranked[k], ranked[i]
			}
		}
	}
	overhead := e.charge(ops, len(aborts))
	for _, v := range aborts {
		if !v.Done() {
			e.abort(v)
		}
	}
	e.pending = ranked
	if e.deferDispatch(overhead) {
		return
	}
	e.applyAssignment(ranked)
}

// applyAssignment maps the ranked job list onto the CPUs: jobs keep their
// CPU if re-selected in the top slots (affinity); remaining CPUs fill
// from the ranked list in priority order. A dispatch can fail benignly —
// an earlier dispatch in the same round may have taken the lock a later
// candidate needs, blocking it at its boundary — in which case the next
// ranked job backfills.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (e *GlobalEngine) applyAssignment(ranked []*task.Job) {
	// The selected set. Every job marked or tested is live: departed
	// jobs are skipped before the test.
	e.epoch++
	count := 0
	for _, j := range ranked {
		if count == len(e.running) {
			break
		}
		if j.Done() || j.State == task.Aborting || e.marked(j) || !e.runnableNow(j) {
			continue
		}
		e.rs(j).mark = e.epoch
		count++
	}
	// Stop de-selected runners.
	for cpu, r := range e.running {
		if r != nil && !e.marked(r) {
			e.stop(cpu)
		}
	}
	// The placed set.
	e.epoch++
	for _, r := range e.running {
		if r != nil {
			e.rs(r).mark = e.epoch
		}
	}
	// Fill free CPUs from the ranked list, skipping jobs that block at
	// dispatch time.
	for _, j := range ranked {
		cpu := e.freeCPU()
		if cpu < 0 || e.fail != nil {
			break
		}
		if j.Done() || j.State == task.Aborting || e.marked(j) {
			continue
		}
		if e.tryDispatch(cpu, j) {
			e.rs(j).mark = e.epoch
		}
	}
}

// marked reports whether live job j is in the set applyAssignment is
// building.
func (e *GlobalEngine) marked(j *task.Job) bool { return e.rs(j).mark == e.epoch }

func (e *GlobalEngine) freeCPU() int {
	for cpu, r := range e.running {
		if r == nil {
			return cpu
		}
	}
	return -1
}

// runnableNow mirrors sched.Runnable plus "not already running" checks
// handled by the caller.
func (e *GlobalEngine) runnableNow(j *task.Job) bool {
	if e.cfg.Mode != LockBased {
		return true
	}
	if obj, ok := j.AtAccessStart(); ok {
		if owner := e.res.Owner(obj); owner != nil && owner != j {
			return false
		}
	}
	if obj, ok := e.res.WaitingFor(j); ok {
		if owner := e.res.Owner(obj); owner != nil && owner != j {
			return false
		}
	}
	return true
}

// tryDispatch attempts to start j on cpu; it reports false when the job
// blocks at its lock boundary instead of running (a benign outcome of
// same-round lock acquisition by a higher-priority job).
//
//rtlint:noalloc per-event path
func (e *GlobalEngine) tryDispatch(cpu int, j *task.Job) bool {
	st := e.rs(j)
	if st.midAccess {
		st.midAccess = false
		if obj, in := j.InAccess(); in && e.res.CommittedAfter(obj, st.accessStart) {
			j.RestartAccess()
			e.emit(e.now, trace.Retry, j, obj, cpu)
		}
	}
	if e.cfg.Mode == LockBased {
		if obj, ok := j.AtAccessStart(); ok {
			switch owner := e.res.Owner(obj); {
			case owner == j:
			case owner == nil:
				if _, _, err := e.res.TryAcquire(j, obj); err != nil {
					e.failWith(err)
					return false
				}
				e.res1.LockEvents++
				e.emit(e.now, trace.LockAcquire, j, obj, cpu)
			default:
				// Lock taken earlier in this same assignment round:
				// register the wait and leave the CPU for the next
				// candidate.
				if _, _, err := e.res.TryAcquire(j, obj); err != nil {
					e.failWith(err)
					return false
				}
				e.res1.LockEvents++
				j.State = task.Blocked
				e.emit(e.now, trace.Block, j, obj, cpu)
				return false
			}
		}
	} else if _, ok := j.AtAccessStart(); ok {
		st.accessStart = e.now
	}
	e.start(cpu, j)
	return true
}

// RunGlobal is a convenience: build a global engine and run it.
func RunGlobal(cfg Config, cpus int) (Result, error) {
	e, err := NewGlobal(cfg, cpus)
	if err != nil {
		return Result{}, err
	}
	r := e.Run()
	return r, r.Err
}
