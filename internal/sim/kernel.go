package sim

import (
	"fmt"
	"math"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
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
	stopSeq     int64      // dispatchSeq at the moment it was stopped

	entrySeg  int        // segment index of the stamped access entry (-1 none)
	entryTime rtime.Time // when the job first reached that access boundary

	casAttempt int // phantom-CAS failures suffered on the current access
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

	rsSlab  []runState  // per-job run states, indexed by Job.EngineSlot
	scratch []*task.Job // stochastic pick/shuffle scratch (reused)

	finished bool

	res1 Result
	fail error
}

// init sets the kernel up for cfg on cpus processors, pre-generating
// every UAM arrival over the horizon. cfg must already be validated.
// s is the engine's scheduler, wired to the observer when it emits
// events of its own.
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
	traces := make([]uam.Trace, len(cfg.Tasks))
	injected := make([][]bool, len(cfg.Tasks))
	arrivals := 0
	for i, t := range cfg.Tasks {
		if cfg.Arrivals != nil {
			if i < len(cfg.Arrivals) {
				traces[i] = cfg.Arrivals[i]
			}
		} else {
			g, err := uam.NewGenerator(t.Arrival, cfg.Seed+int64(i)*7919)
			if err != nil {
				return err
			}
			traces[i] = g.Generate(cfg.ArrivalKind, cfg.Horizon)
		}
		// Fault injection perturbs the releases AFTER generation (or on
		// top of explicit traces), keyed purely by (plan seed, task id,
		// arrival index) so every engine perturbs a task identically.
		traces[i], injected[i] = cfg.Fault.PerturbArrivals(t.ID, traces[i], cfg.Horizon)
		arrivals += len(traces[i])
	}
	// The resource map's tables are indexed by object id and by
	// EngineSlot, so both are sized here once; lock records stay
	// unallocated until the run first takes a lock.
	objects := 0
	for _, t := range cfg.Tasks {
		for _, s := range t.Segments {
			if s.Kind != task.Compute {
				objects = max(objects, s.Object+1)
			}
		}
	}
	k.res = resource.NewSizedMap(arrivals, objects)
	if cfg.Stoch.Active() {
		// Live jobs never exceed total arrivals, so the scratch sized
		// here keeps the stochastic path allocation-free too.
		k.scratch = make([]*task.Job, 0, arrivals)
	}
	// Jobs live in one slab in release order and are numbered
	// (EngineSlot) by their place in it, so the jobs and run states the
	// loop touches together sit together. The full-width runState slab
	// keeps the per-job path allocation-free.
	k.rsSlab = make([]runState, arrivals)
	slab := make([]task.Job, arrivals)
	jobs := make([]*task.Job, arrivals)
	sfx := make([]*task.Suffix, len(cfg.Tasks))
	for i, t := range cfg.Tasks {
		sfx[i] = t.Suffix()
	}
	for r, x := range releaseOrder(traces, arrivals) {
		i, n := int(x.task), int(x.seq)
		j := &slab[r]
		sfx[i].Init(j, n, x.at)
		j.EngineSlot = int32(r)
		k.rsSlab[r].entrySeg = -1
		if injected[i] != nil && injected[i][n] {
			j.Injected = true
		}
		j.SetOverrun(cfg.Fault.Overrun(cfg.Tasks[i].ID, n, sfx[i].Compute()))
		jobs[r] = j
	}
	// The timing wheel holds a job's critical time from its release
	// until that time passes. Critical times never exceed the UAM window
	// (C ≤ W, checked by Validate), so a task has about a of them
	// pending at most; injected bursts or explicit traces past that
	// grow the arena. Abort completions are few and transient.
	pending := 8
	for i, t := range cfg.Tasks {
		pending += min(t.Arrival.A+1, len(traces[i]))
	}
	k.q.init(jobs, cpus, pending)
	return nil
}

// release is one job to create: the seq-th arrival of task task, at at.
type release struct {
	at   rtime.Time
	task int32
	seq  int32
}

// releaseOrder lists the arrivals of the per-task traces (total in all)
// in the order they are released: by time, then task index, then
// invocation. Each trace is sorted, so listing them task by task and
// sorting stably by time gives that order; the sort is an LSD radix
// sort on the bytes of the (non-negative) times, one counting pass per
// byte up to the latest time's highest.
func releaseOrder(traces []uam.Trace, total int) []release {
	src, dst := make([]release, 0, total), make([]release, total)
	var last rtime.Time
	for i, tr := range traces {
		for n, at := range tr {
			src = append(src, release{at: at, task: int32(i), seq: int32(n)})
		}
		if len(tr) > 0 {
			last = max(last, tr[len(tr)-1])
		}
	}
	for shift := uint(0); shift < 64 && last>>shift > 0; shift += 8 {
		var count [257]int
		for _, x := range src {
			count[int(x.at>>shift&0xff)+1]++
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, x := range src {
			b := int(x.at >> shift & 0xff)
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// rs returns j's run state, numbered by init when it created j.
func (k *kernel) rs(j *task.Job) *runState { return &k.rsSlab[j.EngineSlot] }

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

// Finish seals and returns the result. Idempotent; call it after
// StepNext reports the run is over (Run does).
func (k *kernel) Finish() Result {
	k.res1.Jobs = k.q.arrivals[:k.q.released]
	k.res1.Horizon = k.cfg.Horizon
	k.res1.Err = k.fail
	var retries int64
	for _, j := range k.res1.Jobs {
		retries += j.Retries
	}
	k.res1.Retries = retries
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
		j := ev.job
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
		k.q.push(j.AbsoluteCriticalTime(), evCritical, j)
		resched = true
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

func (k *kernel) removeLive(j *task.Job) {
	for i, x := range k.live {
		if x == j {
			//rtlint:ignore noalloc copy-down within the same backing array; never grows
			k.live = append(k.live[:i], k.live[i+1:]...)
			return
		}
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
