// Package rua implements the Resource-constrained Utility Accrual
// scheduling algorithm of Wu et al. [27] in its two forms compared by the
// paper: lock-based RUA (dependency chains, deadlock detection and
// resolution, PUDs over aggregate computations, ECF tentative-schedule
// construction — §3) and lock-free RUA (the same algorithm with
// dependency chains compiled out, §5), which is the paper's core
// contribution.
//
// Operation accounting follows the paper's §3.6 cost model: every chain
// hop, PUD term, and sort comparison is one operation, and every
// ordered-schedule lookup/insert/remove is charged ⌈log₂ n⌉ operations
// (the paper assumes an ordered list with logarithmic primitives). The
// simulator turns these counts into virtual scheduling overhead, so a
// lock-based decision really does cost Θ(log n) more virtual time than a
// lock-free one at the same job count — the mechanism behind Fig 9.
package rua

import (
	"math"
	"sort"

	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
)

// RUA is a configured RUA scheduler. Use NewLockBased or NewLockFree.
//
// An instance reuses internal scratch buffers across Select calls to keep
// the per-decision hot path allocation-free, so it must not be shared by
// concurrently running simulations — give each engine its own instance
// (cf. multi.Run's scheduler factory). The charged-operation accounting is
// pure: reuse changes allocation behaviour only, never op counts.
type RUA struct {
	lockFree bool
	degrade  bool
	observer func(trace.Event)

	// Per-Select scratch, reset (not reallocated) on every pass. A pass
	// numbers every job it reads: slots[s] is the job whose SchedSlot is
	// s, and chains, pud, excluded and the snapshot are slices indexed by
	// slot. The pass's candidates take the first slots; lock holders
	// outside them follow (see number).
	slots     []*task.Job
	chainBuf  []*task.Job // chain arena: lock-free singletons / lock-based walks
	order     []*task.Job
	chains    [][]*task.Job
	pud       []float64
	excluded  []bool
	snap      passSnap
	sched     schedule
	sorter    pudSorter
	cyclesBuf [][]*task.Job
	abortBuf  []*task.Job
	topkBuf   []*task.Job
	ops       int64 // charged operations of the pass in flight
}

// NewLockBased returns RUA with lock-based object sharing: dependency
// chains are computed from the resource map, PUDs aggregate over chains,
// and deadlocks (possible only with nested critical sections) are
// resolved by aborting the least-PUD cycle member.
func NewLockBased() *RUA { return &RUA{lockFree: false} }

// NewLockFree returns lock-free RUA: dependencies do not exist, so every
// chain is the job itself, deadlock detection vanishes, and the schedule
// construction drops from O(n² log n) to O(n²).
func NewLockFree() *RUA { return &RUA{lockFree: true} }

// WithDegradation enables graceful degradation (admission control under
// overload): a job that fails its feasibility test AND can no longer
// meet its critical time even running alone from now on is shed —
// aborted immediately — instead of lingering to thrash the scheduler
// and burn its abort handler at critical-time expiry. The laxity test
// guarantees a job is never shed while it could still complete: in
// particular, a job feasible at its release cannot be shed at release.
// Each shed is reported to the observer as a trace.Shed event and rides
// on Decision.Abort. Returns the receiver for chaining.
func (r *RUA) WithDegradation() *RUA {
	r.degrade = true
	return r
}

// SetObserver attaches a trace observer that receives one FeasOK or
// FeasFail event per job examined in step 5 of each scheduling pass
// (Task/Seq name the examined job, Ops the operations charged while
// inserting and feasibility-testing it). Observation never changes
// charged op counts. The engine running this scheduler emits the
// enclosing SchedPass event; give both the same recorder.
func (r *RUA) SetObserver(obs func(trace.Event)) { r.observer = obs }

func (r *RUA) emitFeas(at rtime.Time, kind trace.Kind, j *task.Job, ops int64) {
	if r.observer == nil {
		return
	}
	r.observer(trace.Event{At: at, Kind: kind, Task: j.Task.ID, Seq: j.Seq, Object: -1, Ops: ops})
}

// Name implements sched.Scheduler.
func (r *RUA) Name() string {
	name := "rua-lockbased"
	if r.lockFree {
		name = "rua-lockfree"
	}
	if r.degrade {
		name += "+shed"
	}
	return name
}

// passSnap is one pass's snapshot of every numbered job's remaining
// demand and absolute critical time, indexed by Job.SchedSlot. Jobs do
// not execute during a pass, so both are constant within it; taking them
// once spares the segment walk and the critical-time read at every PUD
// term, insertion, feasibility step and degradation test.
type passSnap struct {
	rem  []rtime.Duration
	crit []rtime.Time
}

// take snapshots the jobs numbered by their position in slots.
func (s *passSnap) take(slots []*task.Job, acc rtime.Duration) {
	s.rem = resize(s.rem, len(slots))
	s.crit = resize(s.crit, len(slots))
	for i, j := range slots {
		s.rem[i] = j.Remaining(acc)
		s.crit[i] = j.AbsoluteCriticalTime()
	}
}

// entry is one slot of the tentative schedule: a job, its effective
// critical time, possibly tightened by dependency insertion (§3.4.1),
// and its remaining demand, read from the pass's snapshot at insertion.
type entry struct {
	job  *task.Job
	effC rtime.Time
	rem  rtime.Duration
}

// schedule is the tentative schedule of §3.4: an ECF-ordered list with
// the paper's charged-cost primitives. ops accumulates charged
// operations; snap is the pass's snapshot, which insertChain reads.
//
// Mutations are journaled so a tentative insertion that turns out
// infeasible can be rolled back in place instead of cloning the whole
// schedule per examined job (the old clone-per-decision path dominated
// the scheduler's allocation profile). The journal is bookkeeping, not
// algorithm: recording and rolling back are uncharged, exactly as the
// discarded clone was.
type schedule struct {
	entries []entry
	ops     *int64
	snap    *passSnap
	journal []mutation
}

// mutation is one journaled schedule edit. insert=true records an
// insertAt at pos (undone by removing pos); insert=false records a
// removeAt whose removed entry was old (undone by re-inserting it).
type mutation struct {
	insert bool
	pos    int
	old    entry
}

// reset empties the schedule for a fresh pass, keeping capacity.
func (s *schedule) reset() {
	s.entries = s.entries[:0]
	s.journal = s.journal[:0]
}

// mark returns a rollback checkpoint.
func (s *schedule) mark() int { return len(s.journal) }

// rollback undoes every mutation after checkpoint m, newest first,
// restoring entries exactly. Uncharged: the §3.6 model prices schedule
// construction, and the clone-based formulation never charged for
// discarding a tentative either.
func (s *schedule) rollback(m int) {
	for i := len(s.journal) - 1; i >= m; i-- {
		mu := s.journal[i]
		if mu.insert {
			s.removeRaw(mu.pos)
		} else {
			s.insertRaw(mu.pos, mu.old)
		}
	}
	s.journal = s.journal[:m]
}

// chargeLog charges ⌈log₂(len+1)⌉ operations — the ordered-list primitive
// cost of §3.6 step 5.
func (s *schedule) chargeLog() {
	n := len(s.entries) + 1
	c := int64(1)
	for n > 1 {
		c++
		n >>= 1
	}
	*s.ops += c
}

// indexOf returns the position of j, or -1. Charged as one ordered-list
// lookup.
func (s *schedule) indexOf(j *task.Job) int {
	s.chargeLog()
	for i, e := range s.entries {
		if e.job == j {
			return i
		}
	}
	return -1
}

// ecfPos returns the insertion position for effective critical time c:
// after all entries with effC ≤ c (stable for equal critical times).
func (s *schedule) ecfPos(c rtime.Time) int {
	s.chargeLog()
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entries[mid].effC > c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insertRaw places e at pos. Uncharged and unjournaled: the one place
// entries grow, shared by insertAt and rollback.
func (s *schedule) insertRaw(pos int, e entry) {
	//rtlint:ignore noalloc reused entries scratch; growth amortized
	s.entries = append(s.entries, entry{})
	copy(s.entries[pos+1:], s.entries[pos:])
	s.entries[pos] = e
}

// removeRaw deletes and returns the entry at pos. Uncharged and
// unjournaled.
func (s *schedule) removeRaw(pos int) entry {
	e := s.entries[pos]
	copy(s.entries[pos:], s.entries[pos+1:])
	s.entries = s.entries[:len(s.entries)-1]
	return e
}

func (s *schedule) insertAt(pos int, e entry) {
	s.chargeLog()
	s.insertRaw(pos, e)
	//rtlint:ignore noalloc reused journal scratch; growth amortized
	s.journal = append(s.journal, mutation{insert: true, pos: pos})
}

func (s *schedule) removeAt(pos int) entry {
	s.chargeLog()
	e := s.removeRaw(pos)
	//rtlint:ignore noalloc reused journal scratch; growth amortized
	s.journal = append(s.journal, mutation{pos: pos, old: e})
	return e
}

// insertChain inserts job j and its dependents (chain is head→tail with
// the tail being j itself) into the tentative schedule per §3.4.1:
// proceed from tail to head, insert each at its critical-time position,
// force dependency order by moving/tightening when the ECF order
// disagrees (Case 2: insert the dependent before its successor and update
// its critical time to the successor's). Critical times and demands come
// from the pass's snapshot.
func (s *schedule) insertChain(chain []*task.Job) {
	var prev *task.Job   // successor in dependency order (inserted last iteration)
	var prevC rtime.Time // prev's effective critical time
	for i := len(chain) - 1; i >= 0; i-- {
		d := chain[i]
		if d.Done() || d.State == task.Aborting {
			continue
		}
		if di := s.indexOf(d); di >= 0 {
			// Already present (inserted as a dependent of an earlier,
			// higher-PUD job). Re-establish dependency order: d must also
			// precede prev (§3.4.1's removal-and-reinsertion case).
			if prev != nil {
				if pi := s.indexOf(prev); di > pi {
					e := s.removeAt(di)
					e.effC = prevC
					s.insertAt(pi, e)
					di = pi
				}
			}
			prev, prevC = d, s.entries[di].effC
			continue
		}
		effC := s.snap.crit[d.SchedSlot]
		pos := s.ecfPos(effC)
		if prev != nil {
			pi := s.indexOf(prev)
			if pos > pi {
				// ECF order inconsistent with dependency order (Case 2):
				// force d before prev and inherit prev's critical time.
				pos = pi
				effC = prevC
			}
		}
		s.insertAt(pos, entry{job: d, effC: effC, rem: s.snap.rem[d.SchedSlot]})
		prev, prevC = d, effC
	}
}

// feasible checks that executing the schedule in order from now meets
// every effective critical time, charging one operation per visited
// entry.
func (s *schedule) feasible(now rtime.Time) bool {
	t := now
	for _, e := range s.entries {
		*s.ops++
		t = t.Add(e.rem)
		if t.After(e.effC) {
			return false
		}
	}
	return true
}

// first returns the schedule head, or nil when it is empty.
func (s *schedule) first() *task.Job {
	if len(s.entries) == 0 {
		return nil
	}
	return s.entries[0].job
}

// appendFirstK appends the jobs of the first k entries, in order, to dst.
func (s *schedule) appendFirstK(dst []*task.Job, k int) []*task.Job {
	for i := 0; i < k && i < len(s.entries); i++ {
		//rtlint:ignore noalloc appends into the caller's reused buffer; growth amortized
		dst = append(dst, s.entries[i].job)
	}
	return dst
}

// pudSorter is step 4's non-increasing-PUD order as a persistent
// sort.Interface, so sorting allocates nothing (sort.Slice would box a
// fresh closure and lessSwap per pass). sort.Sort and sort.Slice run the
// same pdqsort over the same Less/Swap sequence, so charged comparison
// counts are unchanged.
type pudSorter struct {
	order []*task.Job
	pud   []float64 // indexed by Job.SchedSlot
	ops   *int64
}

func (s *pudSorter) Len() int      { return len(s.order) }
func (s *pudSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *pudSorter) Less(a, b int) bool {
	*s.ops++
	pa, pb := s.pud[s.order[a].SchedSlot], s.pud[s.order[b].SchedSlot]
	//rtlint:ignore floatcmp tie-break gate: both PUDs come from the same pudOf pass, so equal inputs yield bit-equal floats and ties fall through to the deterministic jobLess order
	if pa != pb {
		return pa > pb
	}
	return jobLess(s.order[a], s.order[b])
}

// SelectTopK implements sched.TopK: the first k entries of the final
// RUA schedule, in order. Global multiprocessor dispatch uses this to
// run the schedule's prefix in parallel — the natural global-scheduling
// generalization of "dispatch the head". The returned slice aliases
// reused scratch, valid until the next Select* call on this instance.
//
//rtlint:noalloc steady state runs on reused scratch (PR-6 contract)
func (r *RUA) SelectTopK(w sched.World, k int) ([]*task.Job, int64) {
	d := r.selectFull(w)
	r.topkBuf = r.sched.appendFirstK(r.topkBuf[:0], k)
	return r.topkBuf, d.Ops
}

// SelectTopKAbort implements sched.TopKAborter: SelectTopK plus the
// pass's abort decisions (deadlock victims, degradation sheds), so
// global engines can honor them. Both returned slices alias reused
// scratch, valid until the next Select* call on this instance.
//
//rtlint:noalloc steady state runs on reused scratch (PR-6 contract)
func (r *RUA) SelectTopKAbort(w sched.World, k int) (ranked, abort []*task.Job, ops int64) {
	d := r.selectFull(w)
	r.topkBuf = r.sched.appendFirstK(r.topkBuf[:0], k)
	return r.topkBuf, d.Abort, d.Ops
}

// Select implements sched.Scheduler — the full RUA pass of §3:
// dependency chains, deadlock handling, PUDs, PUD-ordered examination,
// ECF insertion with feasibility testing, and head dispatch.
//
//rtlint:noalloc steady state runs on reused scratch (PR-6 contract)
func (r *RUA) Select(w sched.World) sched.Decision {
	return r.selectFull(w)
}

// selectFull runs the RUA pass. Decision.Abort aliases reused scratch
// and is only valid until the next Select* call on this instance.
func (r *RUA) selectFull(w sched.World) sched.Decision {
	r.ops = 0

	// The candidates are numbered 0..n-1 in world order, so slot i is
	// live[i]. Numbering is bookkeeping, not algorithm: uncharged.
	slots := r.slots[:0]
	for _, j := range w.Jobs {
		if !j.Done() && j.State != task.Aborting {
			j.SchedSlot = int32(len(slots))
			//rtlint:ignore noalloc reused r.slots scratch; growth amortized
			slots = append(slots, j)
		}
	}
	r.slots = slots
	live := slots
	if len(live) == 0 {
		return sched.Decision{}
	}

	// Step 1: dependency chains (§3.1). Lock-free RUA has none — each
	// chain is the job itself (§5); the singleton chains are carved out of
	// one reused backing array instead of allocated per job.
	chains := resize(r.chains, len(live))
	r.chains = chains
	cycles := r.cyclesBuf[:0]
	if r.lockFree {
		buf := resize(r.chainBuf, len(live))
		r.chainBuf = buf
		for i, j := range live {
			buf[i] = j
			chains[i] = buf[i : i+1 : i+1]
			r.ops++
		}
	} else {
		// Chains are carved out of one reused arena. A growth
		// reallocation leaves earlier chains pointing at the old backing
		// array, which is fine: chains are immutable once built, and the
		// arena reaches steady-state capacity after the first passes.
		arena := r.chainBuf[:0]
		for i, j := range live {
			start := len(arena)
			var cycle bool
			arena, cycle = w.Res.AppendDependencyChain(arena, j)
			chain := arena[start:len(arena):len(arena)]
			r.ops += int64(len(chain))
			chains[i] = chain
			for _, d := range chain {
				r.number(d)
			}
			if cycle {
				//rtlint:ignore noalloc reused r.cyclesBuf scratch; growth amortized
				cycles = append(cycles, chain)
			}
		}
		r.chainBuf = arena
	}
	r.cyclesBuf = cycles

	// Every job the pass reads is numbered now, lock holders included:
	// snapshot their remaining demand and critical times (uncharged
	// bookkeeping, like the numbering).
	r.snap.take(r.slots, w.Acc)

	// Step 2: PUDs (§3.2) — utility per unit time of the aggregate
	// computation (the job plus everything it depends on). A numbered
	// holder outside the candidates keeps PUD 0.
	pud := resize(r.pud, len(r.slots))
	r.pud = pud
	clear(pud)
	for i := range live {
		pud[i] = r.pudOf(w, chains[i], &r.ops)
	}

	// Step 3: deadlock resolution (§3.3) — only reachable with nested
	// critical sections. Abort the cycle member with the least PUD; jobs
	// whose chains pass through a victim cannot run before the rollback,
	// so they sit this round out.
	aborts := r.abortBuf[:0]
	excluded := resize(r.excluded, len(r.slots))
	r.excluded = excluded
	clear(excluded)
	for _, cyc := range cycles {
		victim := cyc[0]
		for _, j := range cyc {
			r.ops++
			pj, pv := pud[j.SchedSlot], pud[victim.SchedSlot]
			//rtlint:ignore floatcmp tie-break gate: PUDs of one pass are bit-comparable, equality falls through to the deterministic jobLess victim choice
			if pj < pv || (pj == pv && jobLess(victim, j)) {
				victim = j
			}
		}
		if !excluded[victim.SchedSlot] {
			//rtlint:ignore noalloc reused r.abortBuf scratch; growth amortized
			aborts = append(aborts, victim)
			excluded[victim.SchedSlot] = true
		}
	}
	// A job whose chain passes through an aborting member (its holder's
	// rollback handler has not finished, so the lock is still held) or a
	// deadlock victim cannot run before the corresponding departure
	// event; it sits this round out and is reconsidered then.
	for i := range live {
		for _, d := range chains[i] {
			if excluded[d.SchedSlot] || d.State == task.Aborting {
				excluded[i] = true
				break
			}
		}
	}

	// Step 4: sort by non-increasing PUD (§3.4), ties by job identity for
	// determinism.
	order := r.order[:0]
	for i, j := range live {
		if !excluded[i] {
			//rtlint:ignore noalloc reused r.order scratch; growth amortized
			order = append(order, j)
		}
	}
	r.order = order
	r.sorter = pudSorter{order: order, pud: pud, ops: &r.ops}
	sort.Sort(&r.sorter)

	// Step 5: examine in PUD order, insert job+dependents in ECF order,
	// keep the tentative schedule only if feasible (§3.4, §3.4.1). An
	// infeasible insertion is rolled back through the journal, uncharged.
	cur := &r.sched
	cur.ops = &r.ops
	cur.snap = &r.snap
	cur.reset()
	for _, j := range order {
		if cur.indexOf(j) >= 0 {
			// Already inserted as someone's dependent.
			continue
		}
		before := r.ops
		m := cur.mark()
		cur.insertChain(chains[j.SchedSlot])
		if cur.feasible(w.Now) {
			// Accepted: history up to here can never be rolled back.
			cur.journal = cur.journal[:0]
			r.emitFeas(w.Now, trace.FeasOK, j, r.ops-before)
			continue
		}
		cur.rollback(m)
		r.emitFeas(w.Now, trace.FeasFail, j, r.ops-before)
		if r.degrade {
			// Admission control: a job that cannot meet its critical
			// time even running alone from now on is doomed — shed it
			// now rather than letting it thrash subsequent passes. The
			// laxity comparison is one charged operation.
			r.ops++
			if s := j.SchedSlot; w.Now.Add(r.snap.rem[s]).After(r.snap.crit[s]) {
				//rtlint:ignore noalloc reused r.abortBuf scratch; growth amortized
				aborts = append(aborts, j)
				if r.observer != nil {
					r.observer(trace.Event{At: w.Now, Kind: trace.Shed, Task: j.Task.ID, Seq: j.Seq, Object: -1})
				}
			}
		}
	}
	r.abortBuf = aborts

	return sched.Decision{Run: cur.first(), Abort: aborts, Ops: r.ops}
}

// pudOf computes the potential utility density of a chain: walk from the
// head (executes first) to the tail, accumulate estimated completion
// times and the utility each member would accrue at its estimated
// completion, and divide by the aggregate's total remaining time (§3.2).
func (r *RUA) pudOf(w sched.World, chain []*task.Job, ops *int64) float64 {
	t := w.Now
	total := 0.0
	for _, k := range chain {
		*ops++
		if k.Done() || k.State == task.Aborting {
			continue
		}
		t = t.Add(r.snap.rem[k.SchedSlot])
		total += k.Task.TUF.Utility(t.Sub(k.Arrival))
	}
	denom := t.Sub(w.Now)
	if denom <= 0 {
		// Zero remaining work: infinitely dense — schedule first.
		return math.Inf(1)
	}
	return total / float64(denom)
}

// number gives d the next slot unless this pass already numbered it.
// A lock-based chain can reach a holder outside the candidates (one
// whose abort handler is still running, say); its SchedSlot is then
// stale — left by an earlier pass or another instance — and checking it
// against r.slots before reuse keeps it from aliasing a candidate's
// scratch.
func (r *RUA) number(d *task.Job) {
	if s := int(d.SchedSlot); s >= 0 && s < len(r.slots) && r.slots[s] == d {
		return
	}
	d.SchedSlot = int32(len(r.slots))
	//rtlint:ignore noalloc reused r.slots scratch; growth amortized
	r.slots = append(r.slots, d)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Contents are unspecified; callers overwrite or clear.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		//rtlint:ignore noalloc cap-guarded growth of reused scratch; amortized
		return make([]T, n)
	}
	return s[:n]
}

func jobLess(a, b *task.Job) bool {
	if a.Task.ID != b.Task.ID {
		return a.Task.ID < b.Task.ID
	}
	return a.Seq < b.Seq
}
