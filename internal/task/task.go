// Package task defines the activity model of the paper (§2): tasks with
// time/utility functions and UAM arrival specifications, whose invocations
// (jobs) interleave local computation with accesses to shared objects.
//
// A job's computation time decomposes as c_i = u_i + m_i·t_acc (paper §5),
// where u_i is the compute time not involving shared objects, m_i is the
// number of shared-object accesses, and t_acc is the per-access cost — r
// for lock-based objects, s for lock-free objects. Segments make this
// decomposition explicit: a job is a sequence of compute segments (fixed
// durations summing to u_i) and access segments (one per object access,
// whose duration the execution substrate supplies as r or s).
package task

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/rtime"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// ErrInvalid reports a malformed task definition.
var ErrInvalid = errors.New("task: invalid")

// SegmentKind distinguishes compute from shared-object access segments
// and explicit lock boundaries.
type SegmentKind int

// Segment kinds.
const (
	Compute SegmentKind = iota
	Access
	// Lock and Unlock are zero-duration boundaries delimiting an explicit
	// critical section whose body is ordinary Compute segments. Unlike
	// the flat Access shorthand, Lock/Unlock sections may NEST (hold one
	// object while taking another), which is what makes deadlock — and
	// RUA's §3.3 detection/resolution machinery — reachable. They are
	// only meaningful in lock-based mode; lock-free configurations reject
	// them (the paper's model excludes nested sections for lock-free
	// sharing, §2).
	Lock
	Unlock
)

// Segment is one phase of a job's execution. For Compute segments D is
// the execution demand; for Access segments D is ignored and the duration
// is the synchronization substrate's per-access cost (r or s), while
// Object identifies the shared object touched. Lock/Unlock segments have
// zero duration and name the object in Object.
type Segment struct {
	Kind   SegmentKind
	D      rtime.Duration
	Object int
}

// Task is a recurring activity: a TUF time constraint, a UAM arrival
// specification, an execution body (segments), and an abort handler cost
// (the exception-handler execution time of §3.5).
type Task struct {
	ID        int
	Name      string
	TUF       tuf.TUF
	Arrival   uam.Spec
	Segments  []Segment
	AbortCost rtime.Duration

	// suffix caches the remaining-demand table; see Task.Suffix.
	suffix atomic.Pointer[Suffix]
}

// Validate checks the §2 model constraints: a valid TUF, a valid UAM spec,
// C_i ≤ W_i, non-negative segment durations, at least some demand, and no
// nested critical sections (access segments are flat by construction, so
// this is implied — but zero-length compute segments are rejected to keep
// boundaries meaningful).
func (t *Task) Validate() error {
	if t.TUF == nil {
		return fmt.Errorf("%w: task %d has no TUF", ErrInvalid, t.ID)
	}
	if err := tuf.Validate(t.TUF); err != nil {
		return fmt.Errorf("task %d: %w", t.ID, err)
	}
	if err := t.Arrival.Validate(); err != nil {
		return fmt.Errorf("task %d: %w", t.ID, err)
	}
	if c, w := t.TUF.CriticalTime(), t.Arrival.W; c > w {
		return fmt.Errorf("%w: task %d has C=%v > W=%v (paper §2 assumes C ≤ W)", ErrInvalid, t.ID, c, w)
	}
	if len(t.Segments) == 0 {
		return fmt.Errorf("%w: task %d has no segments", ErrInvalid, t.ID)
	}
	held := map[int]bool{}
	for i, s := range t.Segments {
		switch s.Kind {
		case Compute:
			if s.D <= 0 {
				return fmt.Errorf("%w: task %d segment %d: compute duration %v must be positive", ErrInvalid, t.ID, i, s.D)
			}
		case Access:
			if err := checkObject(t.ID, i, s.Object); err != nil {
				return err
			}
			if len(held) > 0 {
				return fmt.Errorf("%w: task %d segment %d: Access shorthand inside an explicit Lock section", ErrInvalid, t.ID, i)
			}
		case Lock:
			if err := checkObject(t.ID, i, s.Object); err != nil {
				return err
			}
			if held[s.Object] {
				return fmt.Errorf("%w: task %d segment %d: Lock(%d) while already held", ErrInvalid, t.ID, i, s.Object)
			}
			held[s.Object] = true
		case Unlock:
			if !held[s.Object] {
				return fmt.Errorf("%w: task %d segment %d: Unlock(%d) without a matching Lock", ErrInvalid, t.ID, i, s.Object)
			}
			delete(held, s.Object)
		default:
			return fmt.Errorf("%w: task %d segment %d: unknown kind %d", ErrInvalid, t.ID, i, s.Kind)
		}
	}
	if len(held) > 0 {
		return fmt.Errorf("%w: task %d: %d objects still locked at job end", ErrInvalid, t.ID, len(held))
	}
	if t.AbortCost < 0 {
		return fmt.Errorf("%w: task %d: negative abort cost", ErrInvalid, t.ID)
	}
	return nil
}

// MaxObject is the largest shared-object id a segment may name. The
// simulator keeps lock and commit state in tables indexed by object id,
// so ids must be small enough to index one.
const MaxObject = 1<<20 - 1

func checkObject(id, seg, obj int) error {
	switch {
	case obj < 0:
		return fmt.Errorf("%w: task %d segment %d: negative object id", ErrInvalid, id, seg)
	case obj > MaxObject:
		return fmt.Errorf("%w: task %d segment %d: object id %d above %d", ErrInvalid, id, seg, obj, MaxObject)
	}
	return nil
}

// ComputeTime returns u_i, the execution demand outside object accesses.
func (t *Task) ComputeTime() rtime.Duration {
	var u rtime.Duration
	for _, s := range t.Segments {
		if s.Kind == Compute {
			u += s.D
		}
	}
	return u
}

// NumAccesses returns m_i, the number of shared-object accesses per job.
func (t *Task) NumAccesses() int {
	m := 0
	for _, s := range t.Segments {
		if s.Kind == Access {
			m++
		}
	}
	return m
}

// Objects returns the distinct object ids this task touches, in first-use
// order.
func (t *Task) Objects() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range t.Segments {
		if (s.Kind == Access || s.Kind == Lock) && !seen[s.Object] {
			seen[s.Object] = true
			out = append(out, s.Object)
		}
	}
	return out
}

// Clone returns a copy of the task with its own Segments slice, sharing
// the (immutable) TUF. Clones let a workload built once be handed to many
// simulation runs — possibly concurrent ones — with each run free to
// retarget segment objects without affecting the template; cloning is far
// cheaper than rebuilding the workload (no TUF construction, validation,
// or name formatting).
//
// The clone does not share the remaining-demand table; it builds its own
// on first use.
func (t *Task) Clone() *Task {
	return &Task{
		ID: t.ID, Name: t.Name, TUF: t.TUF, Arrival: t.Arrival,
		Segments:  append([]Segment(nil), t.Segments...),
		AbortCost: t.AbortCost,
	}
}

// CloneAll clones every task in the slice.
func CloneAll(tasks []*Task) []*Task {
	out := make([]*Task, len(tasks))
	for i, t := range tasks {
		out[i] = t.Clone()
	}
	return out
}

// UsesExplicitSections reports whether the task has Lock/Unlock segments
// (possible nesting) — only legal under lock-based synchronization.
func (t *Task) UsesExplicitSections() bool {
	for _, s := range t.Segments {
		if s.Kind == Lock || s.Kind == Unlock {
			return true
		}
	}
	return false
}

// Demand returns c_i = u_i + m_i·acc, the total execution demand when each
// object access costs acc.
func (t *Task) Demand(acc rtime.Duration) rtime.Duration {
	return t.ComputeTime() + rtime.Duration(t.NumAccesses())*acc
}

// CriticalTime returns C_i.
func (t *Task) CriticalTime() rtime.Duration { return t.TUF.CriticalTime() }

// InterleavedSegments builds a segment list with total compute time u and
// m object accesses spread evenly through it, cycling over the given
// objects. This is the access pattern of the paper's evaluation ("10
// tasks, accessing 10 shared queues, arbitrarily"). It panics on u ≤ 0,
// m < 0, or m > 0 with no objects, since it is a table-building helper.
func InterleavedSegments(u rtime.Duration, m int, objects []int) []Segment {
	if u <= 0 {
		panic("task: InterleavedSegments needs u > 0")
	}
	if m < 0 || (m > 0 && len(objects) == 0) {
		panic("task: InterleavedSegments needs objects when m > 0")
	}
	if m == 0 {
		return []Segment{{Kind: Compute, D: u}}
	}
	segs := make([]Segment, 0, 2*m+1)
	chunk := u / rtime.Duration(m+1)
	if chunk <= 0 {
		chunk = 1
	}
	used := rtime.Duration(0)
	for k := 0; k < m; k++ {
		segs = append(segs, Segment{Kind: Compute, D: chunk})
		used += chunk
		segs = append(segs, Segment{Kind: Access, Object: objects[k%len(objects)]})
	}
	rest := u - used
	if rest > 0 {
		segs = append(segs, Segment{Kind: Compute, D: rest})
	}
	return segs
}

// State is a job's lifecycle state.
type State uint8

// Job lifecycle states.
const (
	Ready State = iota
	Running
	Blocked   // lock-based only: awaiting an object held by another job
	Aborting  // critical time expired; exception handler pending/running
	Completed // finished before its critical time
	Aborted   // handler finished; job accrued zero utility
)

// String renders a state tag.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Aborting:
		return "aborting"
	case Completed:
		return "completed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StepEvent tells the execution substrate why Job.Step stopped.
type StepEvent int

// Step outcomes.
const (
	StepBudget      StepEvent = iota // consumed the whole budget mid-segment
	StepAccessStart                  // positioned at the start of an access segment
	StepAccessEnd                    // just finished an access segment
	StepCompleted                    // consumed the final segment
	StepLock                         // parked at an explicit Lock boundary
	StepUnlock                       // parked at an explicit Unlock boundary
)

// Job is one invocation J_{i,j} of a task — the basic scheduling entity
// (§2). All runtime fields are owned by the (single-goroutine) execution
// substrate; Job is not safe for concurrent mutation.
//
// The engines recycle job records: a record is created at its job's
// release and, unless the run keeps its jobs (sim.Config.KeepJobs),
// reused for a later release once the job departs. A pointer to a job
// is therefore only meaningful while the job is live, unless the run
// keeps its jobs.
type Job struct {
	Task    *Task
	Seq     int        // j in J_{i,j}
	Arrival rtime.Time // release instant

	// Execution progress.
	SegIdx  int            // current segment index
	SegDone rtime.Duration // progress within the current segment

	Completion rtime.Time // set when State becomes Completed
	AbortedAt  rtime.Time // set when the critical time expired

	// Accounting.
	Retries   int64 // lock-free access restarts (the f_i of Theorem 2)
	Blockings int64 // lock-based blocking episodes (the basis of B_i)
	Preempts  int64 // times preempted while running
	Disp      int64 // times dispatched

	// Fault injection (internal/fault). Overrun is extra execution
	// demand hidden in segment OverrunSeg: the execution substrate
	// (Step, TimeToBoundary) pays it, but Remaining — what schedulers
	// plan against — keeps reporting the declared demand, exactly like
	// a real job running past its declared c_i. Injected marks a job
	// whose release was perturbed (jittered or burst-injected).
	Overrun    rtime.Duration
	OverrunSeg int32
	Injected   bool

	// State is declared here, next to the narrow fault fields, so the
	// three share one word of the struct.
	State State

	// Slots index per-job state kept in slices instead of maps keyed by
	// *Job. EngineSlot is the job's index in its engine's run-state
	// slab while it is live: the engine assigns it at release, reusing
	// the slot of a departed job, and sets it back to −1 at departure
	// (also its value before release). SchedSlot is
	// scheduler scratch, rewritten on every pass; it may be stale, so a
	// scheduler checks it against its own slot table before trusting it.
	EngineSlot int32
	SchedSlot  int32

	// CritSeq is the push sequence of the engine's critical-time event
	// for this job. That event stays queued after the job departs, so
	// when it pops the engine compares the two to tell whether the
	// record still holds the job it was pushed for.
	CritSeq int64

	// critAt is Arrival + C_i, stamped by Init so the schedulers' hot
	// paths read a field instead of calling into the TUF.
	critAt rtime.Time
}

// Suffix is a task's remaining-demand table: row k holds the compute
// demand and the number of object accesses of segments k through the
// last, and one extra zero row stands for a finished job. The task keeps
// it (see Task.Suffix) and its jobs read it through Job.Task, so
// Remaining reads one row instead of walking the segments.
type Suffix struct {
	task *Task
	crit rtime.Duration // C_i, or 0 for a task without a TUF
	rows []suffixRow
}

type suffixRow struct {
	compute  rtime.Duration
	accesses int64
}

func (r *suffixRow) add(s Segment) {
	switch s.Kind {
	case Compute:
		r.compute += s.D
	case Access:
		r.accesses++
	}
}

// Suffix returns t's remaining-demand table. It builds the table on
// first use and again whenever t's segment kinds, compute durations or
// critical time no longer match it, so a task edited between runs gets
// a fresh one; the check is one pass over the segments. Engines call it
// once per task per run and NewJob once per job, so the table describes
// the task as those calls last saw it: none of those fields may change
// while jobs of t run, but object ids may. Runs that share t read-only
// may call it concurrently.
func (t *Task) Suffix() *Suffix {
	if s := t.suffix.Load(); s != nil && s.describes(t) {
		return s
	}
	m := len(t.Segments) + 1
	s := &Suffix{task: t, crit: criticalTime(t), rows: make([]suffixRow, m)}
	for k := m - 2; k >= 0; k-- {
		s.rows[k] = s.rows[k+1]
		s.rows[k].add(t.Segments[k])
	}
	t.suffix.Store(s)
	return s
}

// describes reports whether s is the table Suffix would build for t.
func (s *Suffix) describes(t *Task) bool {
	if s.task != t || s.crit != criticalTime(t) || len(s.rows) != len(t.Segments)+1 {
		return false
	}
	var r suffixRow
	for k := len(t.Segments) - 1; k >= 0; k-- {
		r.add(t.Segments[k])
		if r != s.rows[k] {
			return false
		}
	}
	return true
}

func criticalTime(t *Task) rtime.Duration {
	if t.TUF == nil {
		return 0
	}
	return t.TUF.CriticalTime()
}

// Compute returns the task's compute demand u_i (its ComputeTime).
func (s *Suffix) Compute() rtime.Duration { return s.rows[0].compute }

// Init makes *j, which must be the zero Job, a fresh job for the seq-th
// invocation of the table's task released at ar; callers that allocate
// jobs in bulk use it instead of NewJob. It stamps the job's absolute
// critical time, so ar may not change afterwards. A task without a TUF
// (which Validate rejects) gets its release instant as the critical
// time.
func (s *Suffix) Init(j *Job, seq int, ar rtime.Time) {
	// Field by field: the zero Job is already Ready, and a composite
	// literal would copy the whole struct through a temporary.
	j.Task, j.Seq, j.Arrival = s.task, seq, ar
	j.critAt = ar.Add(s.crit)
}

// NewJob returns a fresh job for the seq-th invocation of t released at
// ar. Code that creates many jobs of one task takes t.Suffix() once and
// calls Init instead.
func NewJob(t *Task, seq int, ar rtime.Time) *Job {
	j := new(Job)
	t.Suffix().Init(j, seq, ar)
	return j
}

// Name renders J_{i,j}.
func (j *Job) Name() string { return fmt.Sprintf("J[%d,%d]", j.Task.ID, j.Seq) }

// AbsoluteCriticalTime returns the wall-clock instant of the job's
// critical time, Arrival + C_i, as Init stamped it.
func (j *Job) AbsoluteCriticalTime() rtime.Time { return j.critAt }

// Done reports whether the job has left the system.
func (j *Job) Done() bool { return j.State == Completed || j.State == Aborted }

// segLen returns the current segment's duration given per-access cost acc.
func (j *Job) segLen(acc rtime.Duration) rtime.Duration {
	switch s := j.Task.Segments[j.SegIdx]; s.Kind {
	case Access:
		return acc
	case Lock, Unlock:
		return 0
	default:
		d := s.D
		if j.Overrun > 0 && j.SegIdx == int(j.OverrunSeg) {
			d += j.Overrun
		}
		return d
	}
}

// SetOverrun injects extra execution demand d into the job's first
// compute segment. Only the execution substrate pays it — Remaining
// still reports the declared demand — so schedulers and feasibility
// tests keep planning against the task's advertised c_i while the job
// actually runs long. No-op when d ≤ 0 or the task has no compute
// segment.
func (j *Job) SetOverrun(d rtime.Duration) {
	if d <= 0 {
		return
	}
	for k, s := range j.Task.Segments {
		if s.Kind == Compute {
			j.Overrun, j.OverrunSeg = d, int32(k)
			return
		}
	}
}

// Remaining returns the execution demand left, with each remaining object
// access costing acc. Progress inside the current segment counts.
func (j *Job) Remaining(acc rtime.Duration) rtime.Duration {
	if j.Done() {
		return 0
	}
	r := &j.Task.suffix.Load().rows[j.SegIdx]
	rem := r.compute + rtime.Duration(r.accesses)*acc - j.SegDone
	if rem < 0 {
		rem = 0
	}
	return rem
}

// InAccess reports whether the job is strictly inside an access segment
// (some progress made, not yet committed), returning the object id. A job
// waiting at an access boundary with zero progress has not begun the
// access, so it is not "in" it.
func (j *Job) InAccess() (obj int, ok bool) {
	if j.Done() || j.SegIdx >= len(j.Task.Segments) {
		return 0, false
	}
	s := j.Task.Segments[j.SegIdx]
	if s.Kind == Access && j.SegDone > 0 {
		return s.Object, true
	}
	return 0, false
}

// AtAccessStart reports whether the job's next work is to begin an access
// segment (zero progress), returning the object id. Lock-based execution
// must acquire the object's lock at this boundary.
func (j *Job) AtAccessStart() (obj int, ok bool) {
	if j.Done() || j.SegIdx >= len(j.Task.Segments) {
		return 0, false
	}
	s := j.Task.Segments[j.SegIdx]
	if s.Kind == Access && j.SegDone == 0 {
		return s.Object, true
	}
	return 0, false
}

// PendingLock reports whether the job is parked at an explicit Lock
// boundary, returning the object to acquire.
func (j *Job) PendingLock() (obj int, ok bool) {
	if j.Done() || j.SegIdx >= len(j.Task.Segments) {
		return 0, false
	}
	s := j.Task.Segments[j.SegIdx]
	if s.Kind == Lock {
		return s.Object, true
	}
	return 0, false
}

// PassBoundary consumes the current Lock/Unlock boundary after the
// execution substrate has performed the acquisition or release. It
// panics if the job is not parked at such a boundary.
func (j *Job) PassBoundary() {
	if j.SegIdx >= len(j.Task.Segments) {
		panic(fmt.Sprintf("task: PassBoundary on finished %s", j.Name()))
	}
	s := j.Task.Segments[j.SegIdx]
	if s.Kind != Lock && s.Kind != Unlock {
		panic(fmt.Sprintf("task: PassBoundary on %s not at a lock boundary", j.Name()))
	}
	j.SegIdx++
	j.SegDone = 0
}

// Step advances the job by at most budget ticks of execution, with access
// segments costing acc each. It stops at the first interesting boundary:
// the start of an access segment (before consuming any of it), the end of
// an access segment (the commit point), or job completion. The returned
// used is the execution time consumed (≤ budget).
func (j *Job) Step(budget, acc rtime.Duration) (used rtime.Duration, ev StepEvent) {
	if budget < 0 {
		panic("task: negative step budget")
	}
	for {
		if j.SegIdx >= len(j.Task.Segments) {
			return used, StepCompleted
		}
		s := j.Task.Segments[j.SegIdx]
		if s.Kind == Access && j.SegDone == 0 && used > 0 {
			// Reached an access boundary after doing compute work.
			return used, StepAccessStart
		}
		if s.Kind == Lock {
			// Never consumed by Step; the execution substrate acquires
			// the lock and calls PassBoundary.
			return used, StepLock
		}
		if s.Kind == Unlock {
			return used, StepUnlock
		}
		need := j.segLen(acc) - j.SegDone
		if need > budget-used {
			j.SegDone += budget - used
			return budget, StepBudget
		}
		used += need
		j.SegDone = 0
		j.SegIdx++
		if s.Kind == Access {
			// Always surface the commit point, even for a final access
			// segment; the next call reports StepCompleted. Execution
			// substrates must observe every commit to release locks or
			// record lock-free commits.
			return used, StepAccessEnd
		}
	}
}

// TimeToBoundary returns how long the job would run before Step would
// stop, given unlimited budget.
func (j *Job) TimeToBoundary(acc rtime.Duration) rtime.Duration {
	cp := *j
	used, _ := cp.Step(rtime.Duration(1)<<50, acc)
	return used
}

// RestartAccess resets progress within the current access segment — a
// lock-free retry. It panics if the job is not inside an access segment.
func (j *Job) RestartAccess() {
	if _, ok := j.InAccess(); !ok {
		panic(fmt.Sprintf("task: RestartAccess on %s not inside an access", j.Name()))
	}
	j.SegDone = 0
	j.Retries++
}

// AccruedUtility returns the utility this job contributed: U_i(sojourn)
// if it completed, zero otherwise.
func (j *Job) AccruedUtility() float64 {
	if j.State != Completed {
		return 0
	}
	return j.Task.TUF.Utility(j.Completion.Sub(j.Arrival))
}

// Sojourn returns completion − arrival for completed jobs and 0 otherwise.
func (j *Job) Sojourn() rtime.Duration {
	if j.State != Completed {
		return 0
	}
	return j.Completion.Sub(j.Arrival)
}

// MetCriticalTime reports whether the job completed at or before its
// critical time.
func (j *Job) MetCriticalTime() bool {
	return j.State == Completed && j.Completion.Sub(j.Arrival) < j.Task.CriticalTime()
}
