package sim

import (
	"repro/internal/rtime"
	"repro/internal/rtime/wheel"
	"repro/internal/task"
)

// eventQueue is the kernel's event source. It yields events in ascending
// (time, push sequence), the order of one priority queue holding every
// event, but only critical times and abort-handler completions ever
// enter one:
//
//   - Arrivals come from a cursor over the run's jobs in release order
//     (time, task index, invocation). They were all scheduled before the
//     run started, so at equal times they precede every run-time event.
//   - Each processor's next boundary, its stochastic quantum expiry and
//     the current dispatch round's deferred dispatch live in slots.
//     Arming a slot overwrites it, and opening a dispatch round clears
//     the round's slots, so a superseded event is never queued and never
//     has to be skipped.
//   - The timing wheel holds the rest, each event carrying its push
//     sequence so it can be ordered against the slots.
//
// Every run-time event draws its sequence number from one counter, in
// the order the kernel schedules it. Zero marks an empty slot.
type eventQueue struct {
	arrivals []*task.Job // every job of the run, in release order
	released int         // arrivals[:released] have been popped

	boundary []slot // per processor: the running job's next boundary
	preempt  []slot // per processor: the stochastic quantum's expiry
	dispatch slot   // the current round's deferred dispatch

	timed *wheel.Wheel[event] // critical times and abort completions
	seq   int64
}

// slot holds at most one pending event of a fixed kind.
type slot struct {
	at  rtime.Time
	seq int64 // push sequence; 0 when empty
}

// Sources of the next event, as peek reports them. Values ≥ 0 name a
// processor's boundary slot; values ≤ srcPreempt name processor
// srcPreempt-v's preempt slot.
const (
	srcArrival  = -1
	srcTimed    = -2
	srcDispatch = -3
	srcPreempt  = -4
)

// init sizes the queue for cpus processors over arrivals (in release
// order), with timed-event arena capacity for about hint events.
func (q *eventQueue) init(arrivals []*task.Job, cpus, hint int) {
	q.arrivals = arrivals
	q.boundary = make([]slot, cpus)
	q.preempt = make([]slot, cpus)
	q.timed = wheel.New[event](hint)
}

func (q *eventQueue) arm(s *slot, at rtime.Time) {
	q.seq++
	s.at, s.seq = at, q.seq
}

// armBoundary schedules cpu's next boundary at at, superseding the
// pending one.
func (q *eventQueue) armBoundary(cpu int, at rtime.Time) { q.arm(&q.boundary[cpu], at) }

// disarmBoundary drops cpu's pending boundary.
func (q *eventQueue) disarmBoundary(cpu int) { q.boundary[cpu].seq = 0 }

// armPreempt schedules cpu's forced preemption at at, valid until the
// next dispatch round opens.
func (q *eventQueue) armPreempt(cpu int, at rtime.Time) { q.arm(&q.preempt[cpu], at) }

// newRound opens a dispatch round, superseding the previous round's
// deferred dispatch and quantum expiries.
func (q *eventQueue) newRound() {
	for i := range q.preempt {
		q.preempt[i].seq = 0
	}
	q.dispatch.seq = 0
}

// armDispatch defers the current round's dispatch to at.
func (q *eventQueue) armDispatch(at rtime.Time) { q.arm(&q.dispatch, at) }

// push schedules a critical-time or abort-completion event for j.
//
//rtlint:noalloc steady state reuses freed arena nodes
func (q *eventQueue) push(at rtime.Time, kind evKind, j *task.Job) {
	q.seq++
	q.timed.Push(at, event{at: at, job: j, seq: q.seq, kind: kind})
}

// before reports whether (at, seq) orders ahead of best.
func before(at rtime.Time, seq int64, best *event) bool {
	return at < best.at || (at == best.at && seq < best.seq)
}

// peek returns the next event without removing it, and its source for
// remove. ok is false when no event remains.
//
//rtlint:noalloc reads slots and peeks the wheel
func (q *eventQueue) peek() (ev event, src int, ok bool) {
	if q.released < len(q.arrivals) {
		j := q.arrivals[q.released]
		ev, src, ok = event{at: j.Arrival, job: j, kind: evArrival}, srcArrival, true
	}
	for cpu := range q.boundary {
		if s := &q.boundary[cpu]; s.seq != 0 && (!ok || before(s.at, s.seq, &ev)) {
			ev, src, ok = event{at: s.at, seq: s.seq, cpu: int32(cpu), kind: evInternal}, cpu, true
		}
		if s := &q.preempt[cpu]; s.seq != 0 && (!ok || before(s.at, s.seq, &ev)) {
			ev, src, ok = event{at: s.at, seq: s.seq, cpu: int32(cpu), kind: evPreempt}, srcPreempt-cpu, true
		}
	}
	if s := &q.dispatch; s.seq != 0 && (!ok || before(s.at, s.seq, &ev)) {
		ev, src, ok = event{at: s.at, seq: s.seq, kind: evDispatch}, srcDispatch, true
	}
	// A bounded peek keeps the wheel from cascading past the next
	// event, so the events the kernel pushes from here on are never
	// stragglers.
	limit := rtime.Infinity
	if ok {
		limit = ev.at
	}
	if _, t, found := q.timed.Peek(limit); found && (!ok || before(t.at, t.seq, &ev)) {
		ev, src, ok = t, srcTimed, true
	}
	return ev, src, ok
}

// remove drops the event peek reported from src.
//
//rtlint:noalloc pops reuse the wheel's arena
func (q *eventQueue) remove(src int) {
	switch {
	case src >= 0:
		q.boundary[src].seq = 0
	case src == srcArrival:
		q.released++
	case src == srcTimed:
		q.timed.Pop()
	case src == srcDispatch:
		q.dispatch.seq = 0
	default:
		q.preempt[srcPreempt-src].seq = 0
	}
}
