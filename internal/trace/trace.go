// Package trace records the simulator's scheduling-relevant state
// changes — arrivals, dispatches, preemptions, lock traffic, lock-free
// commits and retries, completions and aborts — and renders them as an
// event log or a per-task ASCII timeline. The simulator emits events
// through an observer callback, so tracing costs nothing when disabled.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/rtime"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	Arrival Kind = iota
	Dispatch
	Preempt
	Block
	LockAcquire
	LockRelease
	Commit
	Retry
	Complete
	AbortBegin
	AbortDone
	// SchedPass records one scheduler invocation: Ops carries the charged
	// operation count of the pass (§3.6 cost model). Task and Seq are -1.
	SchedPass
	// FeasOK and FeasFail record one tentative-schedule feasibility test
	// inside an RUA scheduling pass (§3.4): Task/Seq identify the examined
	// job, Ops the operations charged while inserting and testing it.
	FeasOK
	FeasFail
	// Fault-injection markers (internal/fault). FaultArrival tags a job
	// whose release was perturbed (jittered or burst-injected) and
	// FaultOverrun one carrying hidden execution demand; both follow the
	// job's Arrival at the same instant. FaultRetry is a lock-free retry
	// forced by an injected phantom writer rather than a real commit.
	// FaultStall records a transient CPU stall charged at a scheduler
	// pass (Task and Seq are -1; Ops carries the stall ticks).
	FaultArrival
	FaultOverrun
	FaultRetry
	FaultStall
	// Shed records the admission-control policy dropping a job it judged
	// infeasible under overload (graceful degradation); the engine's
	// abort events follow.
	Shed
)

var kindNames = [...]string{
	Arrival:      "arrive",
	Dispatch:     "dispatch",
	Preempt:      "preempt",
	Block:        "block",
	LockAcquire:  "lock",
	LockRelease:  "unlock",
	Commit:       "commit",
	Retry:        "retry",
	Complete:     "complete",
	AbortBegin:   "abort",
	AbortDone:    "abort-done",
	SchedPass:    "sched-pass",
	FeasOK:       "feas-ok",
	FeasFail:     "feas-fail",
	FaultArrival: "fault-arrive",
	FaultOverrun: "fault-overrun",
	FaultRetry:   "fault-retry",
	FaultStall:   "fault-stall",
	Shed:         "shed",
}

// String renders the kind tag.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded state change.
type Event struct {
	At     rtime.Time
	Kind   Kind
	Task   int
	Seq    int
	Object int // object id for lock/commit/retry events, else -1

	// CPU is the processor the event happened on: always 0 on the
	// uniprocessor engine, the partition index under internal/multi, the
	// dispatching processor under the global engine, and -1 for events not
	// bound to a processor (arrivals, scheduler passes on the global
	// engine).
	CPU int

	// Ops carries the charged operation count for SchedPass and
	// FeasOK/FeasFail events, 0 otherwise.
	Ops int64
}

// String renders one log line.
func (e Event) String() string {
	switch {
	case e.Kind == SchedPass:
		return fmt.Sprintf("%-10s %-10s ops=%d", e.At, e.Kind, e.Ops)
	case e.Kind == FeasOK || e.Kind == FeasFail:
		return fmt.Sprintf("%-10s %-10s J[%d,%d] ops=%d", e.At, e.Kind, e.Task, e.Seq, e.Ops)
	case e.Object >= 0:
		return fmt.Sprintf("%-10s %-10s J[%d,%d] obj=%d", e.At, e.Kind, e.Task, e.Seq, e.Object)
	default:
		return fmt.Sprintf("%-10s %-10s J[%d,%d]", e.At, e.Kind, e.Task, e.Seq)
	}
}

// Recorder accumulates events. It is not safe for concurrent use; the
// simulator is single-goroutine by design.
type Recorder struct {
	events  []Event
	limit   int
	dropped int64
}

// NewRecorder returns a recorder keeping at most limit events (0 means
// unbounded).
func NewRecorder(limit int) *Recorder { return &Recorder{limit: limit} }

// Record appends an event, dropping the oldest past the limit.
func (r *Recorder) Record(e Event) {
	r.events = append(r.events, e)
	if r.limit > 0 && len(r.events) > r.limit {
		r.dropped += int64(len(r.events) - r.limit)
		r.events = r.events[len(r.events)-r.limit:]
	}
}

// Dropped returns how many events the limit has discarded. A non-zero
// count means Events is a suffix of the run: consumers that need every
// event (span.Build, series/ops folds) were silently starved before
// this counter existed — check it before trusting derived artifacts.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Observer returns the recorder's Record method bound as a callback.
func (r *Recorder) Observer() func(Event) { return r.Record }

// Events returns the recorded events in order.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// CountByKind tallies events per kind. The result is a map, so callers
// that PRINT counts must not range over it — render KindCounts instead,
// which is deterministically ordered.
func (r *Recorder) CountByKind() map[Kind]int {
	m := map[Kind]int{}
	for _, e := range r.events {
		m[e.Kind]++
	}
	return m
}

// KindCount is one entry of the deterministic per-kind tally.
type KindCount struct {
	Kind Kind
	N    int
}

// KindCounts tallies events per kind in ascending Kind order, skipping
// kinds with zero events — the rendering-safe counterpart of
// CountByKind (map iteration order is randomized per run; this slice is
// byte-identical across runs).
func KindCounts(events []Event) []KindCount {
	var tally [len(kindNames)]int
	for _, e := range events {
		if k := int(e.Kind); k >= 0 && k < len(tally) {
			tally[k]++
		}
	}
	out := make([]KindCount, 0, len(tally))
	for k, n := range tally {
		if n > 0 {
			out = append(out, KindCount{Kind: Kind(k), N: n})
		}
	}
	return out
}

// KindCounts tallies the recorder's events; see the package-level
// KindCounts.
func (r *Recorder) KindCounts() []KindCount { return KindCounts(r.events) }

// Summary renders the per-kind tally as one deterministic line, e.g.
// "arrive=4 dispatch=9 commit=6 complete=4".
func Summary(events []Event) string {
	var b strings.Builder
	for i, kc := range KindCounts(events) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", kc.Kind, kc.N)
	}
	return b.String()
}

// Summary renders the recorder's per-kind tally; see the package-level
// Summary.
func (r *Recorder) Summary() string { return Summary(r.events) }

// WriteJSON streams events as a JSON array of objects with microsecond
// timestamps — a stable format for external tooling (trace viewers,
// notebooks).
func WriteJSON(w io.Writer, events []Event) error {
	type jsonEvent struct {
		AtMicros int64  `json:"at_us"`
		Kind     string `json:"kind"`
		Task     int    `json:"task"`
		Seq      int    `json:"seq"`
		Object   *int   `json:"object,omitempty"`
		CPU      int    `json:"cpu,omitempty"`
		Ops      int64  `json:"ops,omitempty"`
	}
	out := make([]jsonEvent, len(events))
	for i, e := range events {
		je := jsonEvent{
			AtMicros: e.At.Micros(),
			Kind:     e.Kind.String(),
			Task:     e.Task,
			Seq:      e.Seq,
			CPU:      e.CPU,
			Ops:      e.Ops,
		}
		if e.Object >= 0 {
			obj := e.Object
			je.Object = &obj
		}
		out[i] = je
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteJSON streams the recorder's events; see the package-level
// WriteJSON.
func (r *Recorder) WriteJSON(w io.Writer) error { return WriteJSON(w, r.events) }

// Log renders the full event log, one line per event.
func (r *Recorder) Log() string {
	var b strings.Builder
	for _, e := range r.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Timeline renders a per-task ASCII Gantt chart over [from, to), width
// characters wide. Each row is one task; each column shows what that
// task was doing in the column's time slice:
//
//	#  running     .  ready/blocked (live, not running)
//	!  aborted     ✓ completed in that slice (then blank)
//
// Dispatch/Preempt/Complete/Abort events drive the state machine; tasks
// with no events in range are omitted.
func (r *Recorder) Timeline(from, to rtime.Time, width int) string {
	if width < 8 {
		width = 8
	}
	if to <= from {
		return ""
	}
	slice := to.Sub(from) / rtime.Duration(width)
	if slice <= 0 {
		slice = 1
	}
	// Collect task ids (scheduler-level events carry no task).
	taskSet := map[int]bool{}
	for _, e := range r.events {
		if e.Task >= 0 {
			taskSet[e.Task] = true
		}
	}
	tasks := make([]int, 0, len(taskSet))
	for t := range taskSet {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)

	rows := make(map[int][]byte, len(tasks))
	for _, t := range tasks {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		rows[t] = row
	}
	col := func(at rtime.Time) int {
		c := int(at.Sub(from) / slice)
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	// live tracks, per task, how many jobs are in the system; running
	// marks the currently dispatched task.
	live := map[int]int{}
	running := -1
	prevCol := 0
	paint := func(upto int) {
		for c := prevCol; c < upto && c < width; c++ {
			for _, t := range tasks {
				if live[t] <= 0 {
					continue
				}
				ch := byte('.')
				if t == running {
					ch = '#'
				}
				if rows[t][c] == ' ' || ch == '#' {
					rows[t][c] = ch
				}
			}
		}
		if upto > prevCol {
			prevCol = upto
		}
	}
	for _, e := range r.events {
		if e.At < from || e.At >= to || e.Task < 0 {
			continue
		}
		paint(col(e.At))
		switch e.Kind {
		case Arrival:
			live[e.Task]++
		case Dispatch:
			running = e.Task
		case Preempt, Block:
			if running == e.Task {
				running = -1
			}
		case Complete:
			live[e.Task]--
			if running == e.Task {
				running = -1
			}
			rows[e.Task][col(e.At)] = '^'
		case AbortDone:
			live[e.Task]--
			if running == e.Task {
				running = -1
			}
			rows[e.Task][col(e.At)] = '!'
		case AbortBegin:
			if running == e.Task {
				running = -1
			}
		}
	}
	paint(width)

	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (each column = %v)\n", from, to, slice)
	for _, t := range tasks {
		fmt.Fprintf(&b, "T%-3d |%s|\n", t, rows[t])
	}
	b.WriteString("      # running  . live  ^ complete  ! aborted\n")
	return b.String()
}
