package sim

import (
	"fmt"
	"math"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
)

// The kernel is the mechanism both engines share: arrival setup, the
// event loop over its merged event source (queue.go) and its stepping
// API, job execution between boundaries (lock traffic, lock-free
// commits, phantom-CAS retries, completions), and scheduler-pass
// accounting. The engines (Engine in sim.go, GlobalEngine in global.go)
// embed it and add only their dispatch policy: which jobs a pass puts
// on which processor, how aborts run, and when a preempted lock-free
// access retries. The kernel is a concrete struct so every per-event
// call is static — the engines' zero-allocation steady state stays
// provable by rtlint's noalloc.

// AccessCost returns the per-access cost in force under the mode: r for
// lock-based, s for lock-free (§5).
func (m Mode) AccessCost(r, s rtime.Duration) rtime.Duration {
	if m == LockBased {
		return r
	}
	return s
}

// validate checks the configuration both engines share. Scheduler and
// the policy-specific knobs are checked by the engine constructors.
func (c *Config) validate() error {
	if len(c.Tasks) == 0 {
		return fmt.Errorf("%w: no tasks", ErrConfig)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %v must be positive", ErrConfig, c.Horizon)
	}
	if c.R <= 0 || c.S <= 0 {
		return fmt.Errorf("%w: access costs R=%v S=%v must be positive", ErrConfig, c.R, c.S)
	}
	if c.OpCost < 0 || math.IsNaN(c.OpCost) || math.IsInf(c.OpCost, 0) {
		return fmt.Errorf("%w: op cost %v", ErrConfig, c.OpCost)
	}
	for _, t := range c.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if c.Arrivals != nil {
		if len(c.Arrivals) > len(c.Tasks) {
			return fmt.Errorf("%w: %d arrival traces for %d tasks", ErrConfig, len(c.Arrivals), len(c.Tasks))
		}
		for i, tr := range c.Arrivals {
			for k, at := range tr {
				if k > 0 && at < tr[k-1] {
					return fmt.Errorf("%w: arrival trace %d is not sorted", ErrConfig, i)
				}
				if at < 0 || at >= c.Horizon {
					return fmt.Errorf("%w: arrival trace %d: %v outside [0, %v)", ErrConfig, i, at, c.Horizon)
				}
			}
		}
	}
	return nil
}

type evKind uint8

const (
	evArrival evKind = iota
	evCritical
	evInternal // the running job on cpu reaches its next boundary
	evDispatch // a deferred dispatch round, after scheduler overhead
	evAbortDone
	evPreempt // stochastic forced preemption at quantum expiry
)

// event is one scheduled occurrence, ordered by ascending (at, seq);
// seq is the push sequence the event queue stamps on run-time events
// (arrivals carry 0 and order by release). The narrow cpu and kind
// fields keep the struct at 32 bytes, the size of every node in the
// timing wheel's arena.
type event struct {
	at   rtime.Time
	job  *task.Job
	seq  int64
	cpu  int32
	kind evKind
}

// runState is per-job engine bookkeeping.
type runState struct {
	accessStart rtime.Time // when the current lock-free access began consuming
	midAccess   bool       // stopped while inside a lock-free access
	mark        uint32     // the global policy's assignment mark (GlobalEngine.epoch)
	stopSeq     int64      // dispatchSeq at the moment it was stopped

	entrySeg  int        // segment index of the stamped access entry (-1 none)
	entryTime rtime.Time // when the job first reached that access boundary

	casAttempt int // phantom-CAS failures suffered on the current access

	rank int64 // release rank: the job's entry in the utility window
}

// kernel is the engine state and mechanism shared by both dispatch
// policies. running and runPos are indexed by CPU; the uniprocessor
// engine has exactly one.
type kernel struct {
	cfg Config
	acc rtime.Duration

	// unbound is the Event.CPU of emissions tied to no processor
	// (arrivals, aborts, scheduler passes): 0 on the uniprocessor, -1
	// under global scheduling, whose scheduler runs on no particular CPU.
	unbound int
	// global selects the global policy's execution semantics: lock-free
	// commits validate against real parallel commits, every deschedule
	// emits Preempt at stop time, and access latency is not stamped.
	global bool

	now  rtime.Time
	q    eventQueue
	res  *resource.Map
	live []*task.Job

	running []*task.Job
	runPos  []rtime.Time

	busyUntil   rtime.Time
	dispatchSeq int64

	// rsSlab holds the live jobs' run states, indexed by Job.EngineSlot.
	// A job takes a slot at release, from the LIFO free list when it is
	// not empty, and returns it at departure, so the slab (like the
	// resource map's job table) grows to the peak live count, not the
	// arrival count.
	rsSlab  []runState
	free    []int32     // departed jobs' slots, reused last-in first-out
	scratch []*task.Job // stochastic pick/shuffle scratch (reused)

	// Job records are made at release, from spare when it is not empty,
	// and go back to spare at departure, so a run allocates records for
	// its peak live count. Under KeepJobs every release takes the next
	// record of the last block in kept, none is reused, and Finish lists
	// them all in release order.
	spare    []*task.Job
	kept     [][]task.Job
	keepHint int            // the first kept block's records
	sfx      []*task.Suffix // per task, for initialising its jobs

	// lastRun is the uniprocessor policy's last dispatched job, cleared
	// when that job departs so a reused record is never taken for it.
	lastRun *task.Job

	// util folds the departed jobs' accrued utility into res1.Sums in
	// release order.
	util utilWindow

	finished bool
	sealed   bool // Finish has folded the jobs still live

	res1 Result
	fail error
}

// init sets the kernel up for cfg on cpus processors. Arrivals are
// drawn as the run reaches them, one pending release per task
// (arrivals.go). cfg must already be validated. s is the engine's
// scheduler, wired to the observer when it emits events of its own.
func (k *kernel) init(cfg Config, cpus int, global bool, s any) error {
	k.cfg = cfg
	k.acc = cfg.Mode.AccessCost(cfg.R, cfg.S)
	k.global = global
	if global {
		k.unbound = -1
	}
	k.running = make([]*task.Job, cpus)
	k.runPos = make([]rtime.Time, cpus)
	if so, ok := s.(interface{ SetObserver(func(trace.Event)) }); ok {
		// Scheduler-emitted events (RUA feasibility tests) are unbound,
		// like SchedPass. Clearing a nil observer keeps reused scheduler
		// instances from leaking events to a previous run's recorder.
		obs := cfg.Observer
		if obs != nil && global {
			obs = func(ev trace.Event) {
				ev.CPU = -1
				cfg.Observer(ev)
			}
		}
		so.SetObserver(obs)
	}
	// Fault injection perturbs the releases as they are drawn, on top of
	// generated or explicit traces, keyed purely by (plan seed, task id,
	// arrival index) so every engine perturbs a task identically.
	if err := k.q.arrivals.init(&k.cfg); err != nil {
		return err
	}
	// The resource map's object table is indexed by object id and sized
	// here once. Its job table, like the run-state slab, is indexed by
	// EngineSlot and starts at initialSlots; lock records stay
	// unallocated until the run first takes a lock.
	objects := 0
	for _, t := range cfg.Tasks {
		for _, s := range t.Segments {
			if s.Kind != task.Compute {
				objects = max(objects, s.Object+1)
			}
		}
	}
	k.res = resource.NewSizedMap(initialSlots, objects)
	if cfg.Stoch.Active() {
		// The pick scratch holds at most the live jobs; it grows with
		// the slab, amortized, to the peak live count.
		k.scratch = make([]*task.Job, 0, initialSlots)
	}
	// A job takes an EngineSlot (its run state's index) and a record
	// only while it is live.
	k.rsSlab = make([]runState, 0, initialSlots)
	if cfg.KeepJobs {
		k.keepHint = keepHint(&cfg)
	}
	k.sfx = make([]*task.Suffix, len(cfg.Tasks))
	for i, t := range cfg.Tasks {
		k.sfx[i] = t.Suffix()
	}
	// The timing wheel holds a job's critical time from its release
	// until that time passes. Critical times never exceed the UAM window
	// (C ≤ W, checked by Validate), so a task has about a of them
	// pending. A perturbing plan's bursts and jitter can push a few
	// more, but sizing for the inflated a of fault.Plan.EffectiveSpec
	// reserves far more than a run usually holds, and the arena grows
	// past its start on demand. A task's share is capped at
	// maxPendingHint, so a declared a cannot size it without bound.
	// Abort completions are few and transient.
	pending := 8
	for _, t := range cfg.Tasks {
		pending += min(max(t.Arrival.A, 0), maxPendingHint) + 1
	}
	k.q.init(cpus, pending)
	return nil
}

// newJob makes the job that x releases.
//
//rtlint:noalloc per-event path
func (k *kernel) newJob(x release) *task.Job {
	var j *task.Job
	if k.cfg.KeepJobs {
		j = k.keep()
	} else if n := len(k.spare); n > 0 {
		j = k.spare[n-1]
		k.spare = k.spare[:n-1]
		*j = task.Job{} // Init requires the zero Job
	} else {
		//rtlint:ignore noalloc grows to the peak live-job count; amortized
		j = new(task.Job)
	}
	i, n := int(x.task), int(x.seq)
	k.sfx[i].Init(j, n, x.at)
	j.Injected = x.inj
	j.SetOverrun(k.cfg.Fault.Overrun(k.cfg.Tasks[i].ID, n, k.sfx[i].Compute()))
	return j
}

// keep returns the next kept job record: the next free record of the
// last block or, once that is full, the first of a new block. The first
// block holds keepHint records, the later ones half the records kept so
// far, so a run that outgrows its estimate leaves at most a third of
// its records unused.
//
//rtlint:noalloc amortized: a block per estimate or per half of the kept jobs
func (k *kernel) keep() *task.Job {
	n := len(k.kept)
	if n == 0 || len(k.kept[n-1]) == cap(k.kept[n-1]) {
		kept := 0
		for _, b := range k.kept {
			kept += len(b)
		}
		size := max(k.keepHint, kept/2, 8)
		//rtlint:ignore noalloc a new block when the last is full; amortized over its records
		k.kept = append(k.kept, make([]task.Job, 0, size))
		n++
	}
	b := &k.kept[n-1]
	*b = (*b)[:len(*b)+1]
	return &(*b)[len(*b)-1]
}

// keepHint estimates the releases of a run that keeps its jobs, with an
// eighth of slack: the explicit traces' lengths, or each task's mean
// UAM rate over the horizon, with the copies an arrival-perturbing plan
// injects on average.
func keepHint(cfg *Config) int {
	var n float64
	if cfg.Arrivals != nil {
		for _, tr := range cfg.Arrivals {
			n += float64(len(tr))
		}
	} else {
		for _, t := range cfg.Tasks {
			n += float64(cfg.Horizon) * t.Arrival.MeanRate()
		}
	}
	if p := cfg.Fault; p.PerturbsArrivals() {
		n *= 1 + min(p.BurstProb, 1)*float64(p.BurstSize)
	}
	return 1 + int(min(n*9/8, 1<<20))
}

// maxPendingHint caps a task's share of the timing wheel's initial
// arena.
const maxPendingHint = 64

// initialSlots is the run-state slab's (and the resource map's job
// table's) starting capacity; a run with more live jobs at once grows
// both by amortized append.
const initialSlots = 16

// rs returns j's run state. j must be live: a departed job's slot is
// −1, so a stray lookup panics instead of reading another job's state.
func (k *kernel) rs(j *task.Job) *runState { return &k.rsSlab[j.EngineSlot] }

// takeSlot gives the job released now a fresh run state: the most
// recently freed slot, or a new one at the end of the slab.
//
//rtlint:noalloc per-event path
func (k *kernel) takeSlot(j *task.Job) {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = int32(len(k.rsSlab))
		//rtlint:ignore noalloc grows to the peak live-job count; amortized
		k.rsSlab = append(k.rsSlab, runState{})
	}
	k.rsSlab[slot] = runState{entrySeg: -1}
	j.EngineSlot = slot
}

// stampEntry records the first arrival at the current access boundary.
func (k *kernel) stampEntry(j *task.Job, at rtime.Time) {
	st := k.rs(j)
	if st.entrySeg != j.SegIdx {
		st.entrySeg = j.SegIdx
		st.entryTime = at
	}
}

func (k *kernel) failWith(err error) {
	if k.fail == nil {
		k.fail = err
	}
}

// emit reports a job-bound trace event to the configured observer.
func (k *kernel) emit(at rtime.Time, kind trace.Kind, j *task.Job, obj, cpu int) {
	if k.cfg.Observer == nil || j == nil {
		return
	}
	k.cfg.Observer(trace.Event{At: at, Kind: kind, Task: j.Task.ID, Seq: j.Seq, Object: obj, CPU: cpu})
}

// emitSched reports a scheduler-level event (no job attached).
func (k *kernel) emitSched(at rtime.Time, kind trace.Kind, ops int64) {
	if k.cfg.Observer == nil {
		return
	}
	k.cfg.Observer(trace.Event{At: at, Kind: kind, Task: -1, Seq: -1, Object: -1, CPU: k.unbound, Ops: ops})
}

// NextAt peeks the virtual time of the engine's next event. ok is false
// when the engine has nothing left to process: no events remain, the
// next event lies beyond the horizon, or the engine failed. The
// partitioned driver (internal/multi) uses this to interleave several
// engines' events in global time order.
func (k *kernel) NextAt() (rtime.Time, bool) {
	if k.fail != nil || k.finished {
		return 0, false
	}
	ev, _, ok := k.q.peek()
	if !ok || ev.at > k.cfg.Horizon {
		return 0, false
	}
	return ev.at, true
}

// Err returns the engine's failure, if any.
func (k *kernel) Err() error { return k.fail }

// Finish seals and returns the result: it folds the jobs still live
// into the sums and stops the run. Idempotent; call it after StepNext
// reports the run is over (Run does).
func (k *kernel) Finish() Result {
	if !k.sealed {
		k.sealed, k.finished = true, true
		for _, j := range k.live {
			k.fold(j)
		}
		if k.cfg.KeepJobs {
			n := 0
			for _, b := range k.kept {
				n += len(b)
			}
			//rtlint:ignore noalloc once per run: Result.Jobs lists the kept records
			k.res1.Jobs = make([]*task.Job, n)
			n = 0
			for _, b := range k.kept {
				for i := range b {
					k.res1.Jobs[n] = &b[i]
					n++
				}
			}
		}
		k.res1.Horizon = k.cfg.Horizon
		k.res1.Err = k.fail
		k.res1.Retries = k.res1.Sums.Retries
	}
	return k.res1
}

// step pops the next event, advances the processors to its time and
// handles the policy-independent kinds (arrivals, boundaries, quantum
// expiry). It reports whether a scheduling event occurred; ok is false
// once the run is over. The engine's StepNext handles the rest of the
// event and runs the scheduling pass.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (k *kernel) step() (ev event, resched, ok bool) {
	if k.fail != nil || k.finished {
		return event{}, false, false
	}
	ev, src, ok := k.q.peek()
	if !ok || ev.at > k.cfg.Horizon {
		k.finished = true
		return event{}, false, false
	}
	k.q.remove(src)
	k.now = ev.at
	if ev.kind == evInternal {
		resched = k.settle(int(ev.cpu))
	} else {
		for cpu := range k.running {
			if k.settle(cpu) {
				resched = true
			}
		}
	}
	switch ev.kind {
	case evArrival:
		j := k.newJob(k.q.released)
		k.takeSlot(j)
		k.rs(j).rank = k.util.open(k.res1.Sums.release(j, k.cfg.Horizon), &k.res1.Sums)
		//rtlint:ignore noalloc bounded by total arrivals; reaches steady capacity at warm-up
		k.live = append(k.live, j)
		k.res1.Arrivals++
		k.emit(k.now, trace.Arrival, j, -1, k.unbound)
		if j.Injected {
			k.res1.FaultArrivals++
			k.emit(k.now, trace.FaultArrival, j, -1, k.unbound)
		}
		if j.Overrun > 0 {
			k.res1.FaultOverruns++
			k.emit(k.now, trace.FaultOverrun, j, -1, k.unbound)
		}
		j.CritSeq = k.q.push(j.AbsoluteCriticalTime(), evCritical, j)
		resched = true
	case evCritical:
		// The event outlives its job. Once the job has departed its
		// record may hold a later release, which this event must not
		// touch: the engines see a stale event as one without a job.
		// The settle above happens either way.
		if ev.job.CritSeq != ev.seq {
			ev.job = nil
		}
	case evPreempt:
		// The stochastic quantum on ev.cpu expired with its dispatch
		// round still current (a new round clears the slot): force a
		// pass.
		if k.running[ev.cpu] != nil {
			resched = true
		}
	}
	return ev, resched, true
}

// settle advances the job running on cpu to now, processing any
// boundary that falls exactly there. It reports whether a scheduling
// event occurred (lock request/release, completion, blocking).
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (k *kernel) settle(cpu int) bool {
	j := k.running[cpu]
	if j == nil {
		return false
	}
	delta := k.now.Sub(k.runPos[cpu])
	for {
		used, stepEv := j.Step(delta, k.acc)
		delta -= used
		k.runPos[cpu] = k.runPos[cpu].Add(used)
		at := k.runPos[cpu]
		k.res1.ExecTime += used
		switch stepEv {
		case task.StepBudget:
			return false
		case task.StepAccessStart:
			obj, _ := j.AtAccessStart()
			if !k.global {
				k.stampEntry(j, at)
			}
			if k.cfg.Mode == LockFree {
				// Not a scheduling event (§4.1): fall straight into the
				// access; the fresh internal event marks its commit point.
				k.rs(j).accessStart = at
				k.q.armBoundary(cpu, at.Add(j.TimeToBoundary(k.acc)))
				continue
			}
			return k.acquire(cpu, j, obj, false)
		case task.StepAccessEnd:
			obj := j.Task.Segments[j.SegIdx-1].Object
			st := k.rs(j)
			if k.cfg.Mode == LockFree {
				// Commit-time validation: under parallel execution a
				// conflicting commit since this access began fails the
				// CAS. On one processor such a commit implies a
				// preemption, so the uniprocessor policy decides the
				// retry at the next dispatch instead.
				if k.global && k.res.CommittedAfter(obj, st.accessStart) {
					k.retryAccess(cpu, j, st, trace.Retry, obj)
					continue
				}
				// An injected phantom writer can still win the commit
				// race: the access retries without any real conflicting
				// commit. The entry stamp survives, so AccessTime keeps
				// accumulating through the retry like it does for real
				// interference.
				if k.cfg.Fault.PhantomCAS(j.Task.ID, j.Seq, j.SegIdx-1, st.casAttempt) {
					st.casAttempt++
					k.res1.FaultRetries++
					k.retryAccess(cpu, j, st, trace.FaultRetry, obj)
					continue
				}
			}
			if st.entrySeg == j.SegIdx-1 {
				k.res1.AccessTime += at.Sub(st.entryTime)
				k.res1.Accesses++
				st.entrySeg = -1
			}
			if k.cfg.Mode == LockFree {
				st.casAttempt = 0
				k.res.RecordCommit(obj, at)
				k.emit(at, trace.Commit, j, obj, cpu)
				k.q.armBoundary(cpu, at.Add(j.TimeToBoundary(k.acc)))
				continue
			}
			return k.release(cpu, j, obj, false)
		case task.StepLock:
			// Explicit sections exist only under the uniprocessor
			// policy; the global engine rejects them at validation.
			obj, _ := j.PendingLock()
			return k.acquire(cpu, j, obj, true)
		case task.StepUnlock:
			return k.release(cpu, j, j.Task.Segments[j.SegIdx].Object, true)
		case task.StepCompleted:
			j.State = task.Completed
			j.Completion = at
			k.res.ReleaseAll(j)
			k.res1.Completions++
			k.emit(at, trace.Complete, j, -1, cpu)
			k.removeLive(j)
			k.running[cpu] = nil
			return true
		}
	}
}

// retryAccess rewinds j to the start of its current lock-free access
// after a failed commit and re-arms the boundary at the new commit point.
//
//rtlint:noalloc per-event path
func (k *kernel) retryAccess(cpu int, j *task.Job, st *runState, kind trace.Kind, obj int) {
	at := k.runPos[cpu]
	j.SegIdx--
	j.SegDone = 0
	j.Retries++
	k.emit(at, kind, j, obj, cpu)
	st.accessStart = at
	k.q.armBoundary(cpu, at.Add(j.TimeToBoundary(k.acc)))
}

// acquire requests obj for the job running on cpu at a lock boundary
// (a scheduling event, §3): the job takes the lock or blocks, and
// either way leaves the processor for the scheduling pass. pass
// consumes an explicit Lock boundary on grant.
//
//rtlint:noalloc per-event path
func (k *kernel) acquire(cpu int, j *task.Job, obj int, pass bool) bool {
	granted, _, err := k.res.TryAcquire(j, obj)
	if err != nil {
		k.failWith(err)
		return false
	}
	k.res1.LockEvents++
	if granted {
		if pass {
			j.PassBoundary()
		}
		k.emit(k.runPos[cpu], trace.LockAcquire, j, obj, cpu)
	} else {
		j.State = task.Blocked
		k.emit(k.runPos[cpu], trace.Block, j, obj, cpu)
	}
	k.stop(cpu)
	return true
}

// release gives obj back at the end of a lock-based access or at an
// explicit Unlock boundary (pass), then leaves the processor for the
// scheduling pass.
//
//rtlint:noalloc per-event path
func (k *kernel) release(cpu int, j *task.Job, obj int, pass bool) bool {
	if err := k.res.Release(j, obj); err != nil {
		k.failWith(err)
		return false
	}
	if pass {
		j.PassBoundary()
	}
	k.res1.LockEvents++
	k.emit(k.runPos[cpu], trace.LockRelease, j, obj, cpu)
	k.stop(cpu)
	return true
}

// stop takes the running job off cpu, remembering a lock-free access it
// was inside of so the next dispatch can decide whether it retries.
//
//rtlint:noalloc per-event path
func (k *kernel) stop(cpu int) {
	j := k.running[cpu]
	if j == nil {
		return
	}
	if _, in := j.InAccess(); in && k.cfg.Mode == LockFree {
		st := k.rs(j)
		st.midAccess = true
		st.stopSeq = k.dispatchSeq
	}
	if j.State == task.Running {
		j.State = task.Ready
		if k.global {
			// The uniprocessor policy marks a preemption at the NEXT
			// dispatch; the global one at every deschedule. Stamped now,
			// not runPos: a pass reached from one CPU's boundary may stop
			// a CPU not settled this event, and now keeps the observer
			// stream nondecreasing in virtual time.
			k.emit(k.now, trace.Preempt, j, -1, cpu)
		}
	}
	k.running[cpu] = nil
}

// removeLive retires a departing job: it leaves the live set, its
// outcome is folded into the sums, and its slot and record are given
// back. The caller has already emptied the job's resource record
// (ReleaseAll), so the next job to take the slot starts clean.
func (k *kernel) removeLive(j *task.Job) {
	for i, x := range k.live {
		if x == j {
			//rtlint:ignore noalloc copy-down within the same backing array; never grows
			k.live = append(k.live[:i], k.live[i+1:]...)
			k.fold(j)
			//rtlint:ignore noalloc grows to the peak live-job count; amortized
			k.free = append(k.free, j.EngineSlot)
			j.EngineSlot = -1
			if k.lastRun == j {
				k.lastRun = nil
			}
			if !k.cfg.KeepJobs {
				//rtlint:ignore noalloc grows to the peak live-job count; amortized
				k.spare = append(k.spare, j)
			}
			return
		}
	}
}

// fold adds the outcome of j, which holds its slot, to the sums. A job
// that does not count never held its rank open, so the utility window
// may already have passed it and given its slot to a later rank: only
// a counted job resolves its entry.
//
//rtlint:noalloc per-event path
func (k *kernel) fold(j *task.Job) {
	u, adds, counts := k.res1.Sums.depart(j, k.cfg.Horizon)
	if counts {
		k.util.resolve(k.rs(j).rank, u, adds, &k.res1.Sums)
	}
}

// world is the scheduler's view of the engine at now.
func (k *kernel) world() sched.World {
	return sched.World{
		Now:       k.now,
		Jobs:      k.live,
		Res:       k.res,
		Acc:       k.acc,
		LockBased: k.cfg.Mode == LockBased,
	}
}

// charge accounts one scheduler pass of ops charged operations that
// decided nAborts aborts, and returns the processor time it occupies:
// its overhead plus any injected stall.
//
//rtlint:noalloc per-event path
func (k *kernel) charge(ops int64, nAborts int) rtime.Duration {
	k.res1.SchedInvocations++
	k.res1.SchedOps += ops
	k.emitSched(k.now, trace.SchedPass, ops)
	overhead := rtime.Duration(math.Round(float64(ops) * k.cfg.OpCost))
	k.res1.Overhead += overhead
	if stall := k.cfg.Fault.Stall(k.res1.SchedInvocations); stall > 0 {
		// A transient CPU stall lands on this pass: the processor is
		// occupied for the extra ticks exactly like scheduler overhead,
		// but accounted separately.
		k.res1.FaultStalls++
		k.res1.StallTime += stall
		k.emitSched(k.now, trace.FaultStall, int64(stall))
		overhead += stall
	}
	k.res1.SchedAborts += int64(nAborts)
	return overhead
}

// deferDispatch opens a new dispatch round after a pass occupying
// overhead (queued behind any abort handlers it started). When that
// keeps the processor busy past now it schedules the round's dispatch
// event and reports true; otherwise the engine dispatches immediately.
//
//rtlint:noalloc per-event path
func (k *kernel) deferDispatch(overhead rtime.Duration) bool {
	k.q.newRound()
	start := rtime.MaxTime(k.busyUntil, k.now)
	k.busyUntil = start.Add(overhead)
	if k.busyUntil.After(k.now) {
		k.q.armDispatch(k.busyUntil)
		return true
	}
	return false
}

// start puts j on cpu at now, arms its next boundary and, under an
// active stochastic plan, its forced-preemption quantum.
//
//rtlint:noalloc per-event path
func (k *kernel) start(cpu int, j *task.Job) {
	j.State = task.Running
	j.Disp++
	k.dispatchSeq++
	k.emit(k.now, trace.Dispatch, j, -1, cpu)
	k.running[cpu] = j
	k.runPos[cpu] = k.now
	k.res1.CtxSwitches++
	k.q.armBoundary(cpu, k.now.Add(j.TimeToBoundary(k.acc)))
	// Quanta hash with the dispatching processor: the partition index
	// (StochCPU) on the uniprocessor, the CPU under global scheduling.
	if q := k.cfg.Stoch.Step(k.cfg.StochCPU+cpu, k.now); q > 0 {
		// A forced preemption unless a newer dispatch round supersedes
		// this dispatch.
		k.q.armPreempt(cpu, k.now.Add(q))
	}
}
