// Package resource models the shared-object state the schedulers and the
// simulator reason about: which job holds which lock (lock-based mode),
// who is waiting on what (the raw material of RUA's dependency chains,
// §3.1), and — in lock-free mode — which commits have landed on which
// object (the raw material of retry accounting, §4).
//
// The simulator runs on one goroutine, so this package is deliberately
// unsynchronized; the *real* concurrent objects, the Fig 8 queue and
// register pair, live in internal/lockfree and internal/lockobj.
package resource

import (
	"errors"
	"fmt"

	"repro/internal/rtime"
	"repro/internal/task"
)

// ErrState reports an impossible lock-state transition — a simulator bug
// if it ever surfaces.
var ErrState = errors.New("resource: inconsistent state")

// none marks an empty object link in the per-object and per-job records.
const none = -1

// Map tracks the lock and access state of all shared objects.
//
// No state is hashed. Per-object state lives in a table indexed by
// object id, per-job state in one indexed by Job.EngineSlot, so every
// job that takes a lock must carry a slot no other live job of the map
// uses (the engines give each job a slot while it is live and reuse it
// after the job departs; engine-less callers number their own). A slot
// is reusable once ReleaseAll has emptied its record. A job whose slot
// lies outside the table holds and waits on nothing.
type Map struct {
	objs []objRecord // object id → holder, held-list link, last commit
	jobs []jobRecord // Job.EngineSlot → wait record, held list, walk stamp

	// jobCap is the initial job-table length NewSizedMap asks for. The
	// table itself is allocated when the first lock is taken, so a
	// lock-free run never pays for it, and grows by doubling to the
	// largest slot it sees.
	jobCap int

	// epoch stamps the jobs one dependency-chain walk has visited, so
	// cycle detection needs no per-walk clearing.
	epoch uint32

	// Counters for experiment reporting.
	Acquisitions int64
	Contentions  int64
	Commits      int64
}

type objRecord struct {
	owner *task.Job // lock-based holder, nil when free
	slot  int32     // the holder's EngineSlot, so chain walks stay in the tables
	// next is the object the owner acquired before this one and still
	// holds: each holder's objects form a LIFO list through this link.
	next int32
	// committed reports whether any lock-free access to the object has
	// committed; lastCommit is then the instant of the latest one.
	committed  bool
	lastCommit rtime.Time
}

type jobRecord struct {
	wait int32  // object the job waits on, or none
	top  int32  // most recently acquired object the job holds, or none
	seen uint32 // epoch of the last chain walk that visited the job
}

// emptyJob is the record of a slot whose job holds and waits on nothing.
var emptyJob = jobRecord{wait: none, top: none}

// NewMap returns an empty resource map. Its tables grow to the largest
// object id and EngineSlot they see.
func NewMap() *Map { return &Map{} }

// NewSizedMap returns an empty resource map whose object table holds
// objects objects (ids 0..objects−1), so the run never grows it, and
// whose job table starts at jobs records (EngineSlots 0..jobs−1) and
// grows past that by doubling.
func NewSizedMap(jobs, objects int) *Map {
	return &Map{objs: make([]objRecord, objects), jobCap: jobs}
}

// obj returns obj's record, growing the object table to reach it.
func (m *Map) obj(obj int) *objRecord {
	if obj >= len(m.objs) {
		//rtlint:ignore noalloc grows only past the ids NewSizedMap reserved, which cover every engine object
		m.objs = append(m.objs, make([]objRecord, obj+1-len(m.objs))...)
	}
	return &m.objs[obj]
}

// record returns j's record, or nil when j's slot lies outside the
// table (so it has never taken a lock).
func (m *Map) record(j *task.Job) *jobRecord {
	if s := int(j.EngineSlot); s >= 0 && s < len(m.jobs) {
		return &m.jobs[s]
	}
	return nil
}

// claim returns j's record, allocating the job table at the first lock.
// It fails when j's slot is negative or its record holds objects of
// another job, so two jobs sharing a slot are caught at the latest when
// both hold locks.
func (m *Map) claim(j *task.Job) (*jobRecord, error) {
	s := int(j.EngineSlot)
	if s < 0 {
		//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
		return nil, fmt.Errorf("%w: %s has negative EngineSlot %d", ErrState, j.Name(), s)
	}
	if s >= len(m.jobs) {
		//rtlint:ignore noalloc at the first lock, then grows by doubling to the peak live-job slot; amortized
		grown := make([]jobRecord, max(m.jobCap, s+1, 2*len(m.jobs)))
		for i := copy(grown, m.jobs); i < len(grown); i++ {
			grown[i] = emptyJob
		}
		m.jobs = grown
	}
	r := &m.jobs[s]
	if r.top != none {
		if other := m.objs[r.top].owner; other != j {
			//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
			return nil, fmt.Errorf("%w: %s and %s share EngineSlot %d", ErrState, j.Name(), other.Name(), s)
		}
	}
	return r, nil
}

// Owner returns the job holding obj, or nil.
func (m *Map) Owner(obj int) *task.Job {
	if obj < 0 || obj >= len(m.objs) {
		return nil
	}
	return m.objs[obj].owner
}

// WaitingFor returns the object j is waiting on, if any.
func (m *Map) WaitingFor(j *task.Job) (obj int, ok bool) {
	if r := m.record(j); r != nil && r.wait != none {
		return int(r.wait), true
	}
	return 0, false
}

// Held returns the objects j currently holds, in acquisition order, in a
// fresh slice.
func (m *Map) Held(j *task.Job) []int {
	r := m.record(j)
	if r == nil {
		return nil
	}
	var hs []int
	for o := r.top; o != none; o = m.objs[o].next {
		hs = append(hs, int(o))
	}
	for lo, hi := 0, len(hs)-1; lo < hi; lo, hi = lo+1, hi-1 {
		hs[lo], hs[hi] = hs[hi], hs[lo]
	}
	return hs
}

// TryAcquire attempts to take obj for j. If obj is free (or already held
// by j, which the no-nesting model forbids and therefore rejects), the
// lock is granted. Otherwise j is recorded as waiting and the holder is
// returned.
func (m *Map) TryAcquire(j *task.Job, obj int) (granted bool, holder *task.Job, err error) {
	r, err := m.claim(j)
	if err != nil {
		return false, nil, err
	}
	o := m.obj(obj)
	if cur := o.owner; cur != nil {
		if cur == j {
			//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
			return false, nil, fmt.Errorf("%w: %s re-acquiring object %d it already holds (nested sections are excluded)", ErrState, j.Name(), obj)
		}
		r.wait = int32(obj)
		m.Contentions++
		j.Blockings++
		return false, cur, nil
	}
	o.owner, o.slot = j, j.EngineSlot
	o.next = r.top
	r.top = int32(obj)
	r.wait = none
	m.Acquisitions++
	return true, nil, nil
}

// Release frees obj, which must be held by j.
func (m *Map) Release(j *task.Job, obj int) error {
	if m.Owner(obj) != j {
		//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
		return fmt.Errorf("%w: %s releasing object %d it does not hold", ErrState, j.Name(), obj)
	}
	r := m.record(j)
	link := &r.top
	for *link != int32(obj) {
		link = &m.objs[*link].next
	}
	*link = m.objs[obj].next
	m.objs[obj].owner = nil
	return nil
}

// ReleaseAll frees everything j holds and clears its wait record — used
// when a job's abort handler finishes (the handler rolls held resources
// back to safe states, §3.5) and when a job completes.
func (m *Map) ReleaseAll(j *task.Job) {
	r := m.record(j)
	if r == nil {
		return
	}
	for o := r.top; o != none; o = m.objs[o].next {
		m.objs[o].owner = nil
	}
	*r = emptyJob
}

// Forget drops any wait record for j (e.g. the job got the CPU back and
// will re-attempt the acquisition as a fresh scheduling decision).
func (m *Map) Forget(j *task.Job) {
	if r := m.record(j); r != nil {
		r.wait = none
	}
}

// RecordCommit notes that a lock-free access to obj committed at t.
func (m *Map) RecordCommit(obj int, t rtime.Time) {
	o := m.obj(obj)
	o.committed = true
	o.lastCommit = t
	m.Commits++
}

// CommittedSince reports whether any lock-free access to obj committed at
// or after t.
func (m *Map) CommittedSince(obj int, t rtime.Time) bool {
	if obj < 0 || obj >= len(m.objs) {
		return false
	}
	o := &m.objs[obj]
	return o.committed && o.lastCommit >= t
}

// CommittedAfter reports whether any lock-free access to obj committed
// STRICTLY after t. Commit-time validation in parallel execution must use
// the strict form: a commit at exactly the instant a fresh attempt began
// is ordered before it, and counting it would retry forever when two
// processors interleave at the same tick.
func (m *Map) CommittedAfter(obj int, t rtime.Time) bool {
	if obj < 0 || obj >= len(m.objs) {
		return false
	}
	o := &m.objs[obj]
	return o.committed && o.lastCommit > t
}

// DependencyChain computes j's dependency chain (§3.1): the sequence
// ⟨T_k, …, T_2, J⟩ obtained by following "waiting-for → holder" links,
// head first (the job that must execute first) and ending with j itself.
// If the links form a cycle — only possible with nested critical sections
// — the second return is true and the returned chain is the cycle
// participants up to the repeat, which the deadlock resolver inspects.
func (m *Map) DependencyChain(j *task.Job) (chain []*task.Job, cycle bool) {
	return m.AppendDependencyChain(nil, j)
}

// AppendDependencyChain is DependencyChain without the per-call
// allocations: the head-first chain is appended to dst (the returned
// slice is dst extended, exactly like append), and cycle detection
// stamps visited jobs with the walk's epoch instead of filling a set.
// RUA's per-pass chain arena feeds every live job through this so a
// lock-based scheduling pass in steady state allocates nothing.
func (m *Map) AppendDependencyChain(dst []*task.Job, j *task.Job) (chain []*task.Job, cycle bool) {
	m.epoch++
	if m.epoch == 0 {
		// The stamp wrapped: clear every stale stamp once per 2³² walks.
		for i := range m.jobs {
			m.jobs[i].seen = 0
		}
		m.epoch = 1
	}
	start := len(dst)
	objs, jobs, epoch := m.objs, m.jobs, m.epoch
	r := m.record(j)
	for cur := j; ; {
		//rtlint:ignore noalloc appends into the caller's reused arena; growth amortized
		dst = append(dst, cur)
		if r == nil || r.wait == none {
			break
		}
		r.seen = epoch
		o := &objs[r.wait]
		if o.owner == nil {
			// The object was released since the wait was recorded; the
			// chain ends here and the waiter can re-request.
			break
		}
		// The walk stays in the tables: the holder's record is found by
		// the slot the object kept, not through the job.
		r = &jobs[o.slot]
		if r.seen == epoch {
			cycle = true
			break
		}
		cur = o.owner
	}
	// The walk collected tail-first; reverse the appended region so the
	// chain reads head (must execute first) to tail (j itself).
	for lo, hi := start, len(dst)-1; lo < hi; lo, hi = lo+1, hi-1 {
		dst[lo], dst[hi] = dst[hi], dst[lo]
	}
	return dst, cycle
}
