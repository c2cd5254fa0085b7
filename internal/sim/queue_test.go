package sim

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/rtime"
	"repro/internal/rtime/wheel"
	"repro/internal/task"
	"repro/internal/uam"
)

// refEvent is an event of the reference model: one queue holding every
// event the kernel schedules, tagged with the generation that keeps it
// live, as the kernel's queue worked before slots replaced the
// generation counters.
type refEvent struct {
	ev  event
	gen int64
}

// refQueue is the reference model: every event goes into one (time,
// push order) heap; arming a boundary bumps its processor's generation,
// opening a dispatch round bumps the round's, and a popped event whose
// generation is no longer current is skipped without effect.
type refQueue struct {
	heap     *wheel.Ref[refEvent]
	boundGen []int64
	roundGen int64
}

func (r *refQueue) live(e refEvent) bool {
	switch e.ev.kind {
	case evInternal:
		return e.gen == r.boundGen[e.ev.cpu]
	case evDispatch, evPreempt:
		return e.gen == r.roundGen
	}
	return true
}

// peek drops superseded events from the front and returns the first
// live one.
func (r *refQueue) peek() (event, bool) {
	for {
		_, e, ok := r.heap.Peek(rtime.Infinity)
		if !ok {
			return event{}, false
		}
		if r.live(e) {
			return e.ev, true
		}
		r.heap.Pop()
	}
}

// FuzzEventOrder replays random sequences of boundary arms and disarms,
// dispatch rounds, quantum arms, timed pushes, peeks and pops against
// the kernel's eventQueue and the reference model, and requires both to
// yield the same events in the same order. Arrivals are per-task traces
// merged by releaseOrder on the queue side and pre-pushed in (task,
// invocation) order on the reference side.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.Intn(1500))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEventOrder(t, data)
	})
}

func checkEventOrder(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	cpus := 1 + next()%3
	tsk := &task.Task{Segments: []task.Segment{{Kind: task.Compute, D: 1}}}

	// Arrivals: up to four tasks, each with a sorted trace of small
	// steps so equal release times across tasks are common.
	ref := &refQueue{heap: wheel.NewRef[refEvent](0), boundGen: make([]int64, cpus)}
	var traces []uam.Trace
	var byTask [][]*task.Job
	total := 0
	for ti, nt := 0, next()%5; ti < nt; ti++ {
		var tr uam.Trace
		var js []*task.Job
		at := rtime.Time(0)
		for n, cnt := 0, next()%6; n < cnt; n++ {
			at += rtime.Time(next() % 4 * 8)
			j := task.NewJob(tsk, n, at)
			ref.heap.Push(at, refEvent{ev: event{at: at, job: j, kind: evArrival}})
			tr, js = append(tr, at), append(js, j)
		}
		traces, byTask = append(traces, tr), append(byTask, js)
		total += len(tr)
	}
	var jobs []*task.Job
	for _, x := range releaseOrder(traces, total) {
		jobs = append(jobs, byTask[x.task][x.seq])
	}
	var q eventQueue
	q.init(jobs, cpus, 0)

	now := rtime.Time(0)
	preempted := make([]bool, cpus) // armed in the current round
	pushRef := func(ev event, gen int64) { ref.heap.Push(ev.at, refEvent{ev: ev, gen: gen}) }
	for len(data) > 0 {
		op, cpu := next()%8, next()%cpus
		// Times near now, sometimes behind it as a superseded boundary
		// or a late timed event would be.
		at := now + rtime.Time(next()%24) - 4
		if at < 0 {
			at = 0
		}
		switch op {
		case 0:
			ref.boundGen[cpu]++
			pushRef(event{at: at, cpu: int32(cpu), kind: evInternal}, ref.boundGen[cpu])
			q.armBoundary(cpu, at)
		case 1:
			ref.boundGen[cpu]++
			q.disarmBoundary(cpu)
		case 2:
			ref.roundGen++
			q.newRound()
			clear(preempted)
			if at > now {
				pushRef(event{at: at, kind: evDispatch}, ref.roundGen)
				q.armDispatch(at)
			}
		case 3:
			if preempted[cpu] {
				continue // the kernel starts a processor at most once per round
			}
			preempted[cpu] = true
			pushRef(event{at: at, cpu: int32(cpu), kind: evPreempt}, ref.roundGen)
			q.armPreempt(cpu, at)
		case 4:
			j := task.NewJob(tsk, 0, at)
			kind := evCritical
			if cpu == 0 {
				kind = evAbortDone
			}
			pushRef(event{at: at, job: j, kind: kind}, 0)
			q.push(at, kind, j)
		default:
			want, wok := ref.peek()
			got, src, gok := q.peek()
			if wok != gok || (wok && !sameEvent(got, want)) {
				t.Fatalf("peek: queue (%+v, %v), reference (%+v, %v)", got, gok, want, wok)
			}
			if !gok || op == 5 {
				continue
			}
			q.remove(src)
			ref.heap.Pop()
			now = max(now, got.at)
		}
	}
	// Drain both.
	for {
		want, wok := ref.peek()
		got, src, gok := q.peek()
		if wok != gok || (wok && !sameEvent(got, want)) {
			t.Fatalf("drain: queue (%+v, %v), reference (%+v, %v)", got, gok, want, wok)
		}
		if !gok {
			return
		}
		q.remove(src)
		ref.heap.Pop()
	}
}

// sameEvent compares what the kernel reads of an event; the sequence
// numbers of the two sides are drawn from different counters.
func sameEvent(a, b event) bool {
	return a.at == b.at && a.kind == b.kind && a.cpu == b.cpu && a.job == b.job
}

// TestEventSize pins event at 32 bytes, the payload of every node in
// the timing wheel's arena.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", n)
	}
}
