package trace

import (
	"cmp"
	"io"
	"slices"
	"sort"
	"strconv"

	"repro/internal/rtime"
)

// WritePerfetto renders an event stream in the Chrome trace-event JSON
// format, loadable by ui.perfetto.dev (and chrome://tracing), and
// writes it to w in one call; see AppendPerfetto.
func WritePerfetto(w io.Writer, events []Event) error {
	_, err := w.Write(AppendPerfetto(nil, events))
	return err
}

// Perfetto output size estimates, per object: a few bytes above what a
// typical object of each class renders to, so one allocation sized
// from the event counts holds the trace.
const (
	perfettoMetaLen    = 80
	perfettoSlicesLen  = 190 // a dispatch's task and CPU slices
	perfettoInstantLen = 100
)

// AppendPerfetto appends the Chrome trace-event JSON rendering of
// events to dst, growing dst once by an estimate from the event counts.
// The mapping:
//
//   - process "tasks" (pid 1): one thread per task; a "run" slice per
//     dispatch-to-stop interval plus instant markers for arrivals,
//     commits, retries, blocks, lock traffic, and aborts;
//   - process "cpus" (pid 2): one thread per processor, showing which
//     job occupies it over time (slice name J[i,j]);
//   - process "scheduler" (pid 3): one thread per processor, with
//     instant markers for scheduling passes (charged ops in args) and
//     RUA feasibility tests.
//
// Virtual time maps one tick to one microsecond, the native "ts" unit
// of the format. The output is a pure function of the event slice:
// objects are appended by hand in fixed field order with strconv, and
// all track enumerations are sorted, so equal traces produce
// byte-identical files.
func AppendPerfetto(dst []byte, events []Event) []byte {
	// Walk the events by time, preserving the (deterministic) input
	// order of ties. Engines emit in time order, so the walk is usually
	// the slice itself; otherwise it goes through an index sorted
	// stably by time, one int per event rather than a copy of the
	// (much larger) events.
	var idx []int
	if !slices.IsSortedFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) }) {
		idx = make([]int, len(events))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return events[idx[i]].At < events[idx[j]].At })
	}

	// Track inventory, sorted for stable metadata order, and the object
	// counts the buffer is sized from.
	taskSet := map[int]bool{}
	cpuSet := map[int]bool{}
	schedCPUSet := map[int]bool{}
	var end rtime.Time
	var dispatches, instants int
	for i := range events {
		e := &events[i]
		if e.Task >= 0 {
			taskSet[e.Task] = true
		}
		switch e.Kind {
		case Dispatch:
			cpuSet[cpu0(e.CPU)] = true
			dispatches++
		case SchedPass, FeasOK, FeasFail, FaultStall:
			schedCPUSet[e.CPU] = true
			instants++
		case Arrival, Commit, Retry, Block, LockAcquire, LockRelease, AbortBegin, AbortDone, Complete,
			FaultArrival, FaultOverrun, FaultRetry, Shed:
			instants++
		}
		if e.At > end {
			end = e.At
		}
	}
	metas := len(taskSet) + len(cpuSet) + len(schedCPUSet) + 3
	size := len(dst) + 32 + metas*perfettoMetaLen + dispatches*perfettoSlicesLen + instants*perfettoInstantLen
	if cap(dst) < size {
		dst = append(make([]byte, 0, size), dst...)
	}
	pw := &perfettoWriter{b: dst}
	pw.b = append(pw.b, `{"traceEvents":[`...)

	pw.meta(1, 0, "process_name", "tasks")
	for _, t := range sortedKeys(taskSet) {
		pw.meta(1, t+1, "thread_name", "T"+strconv.Itoa(t))
	}
	if len(cpuSet) > 0 {
		pw.meta(2, 0, "process_name", "cpus")
		for _, c := range sortedKeys(cpuSet) {
			pw.meta(2, c+1, "thread_name", "CPU"+strconv.Itoa(c))
		}
	}
	if len(schedCPUSet) > 0 {
		pw.meta(3, 0, "process_name", "scheduler")
		for _, c := range sortedKeys(schedCPUSet) {
			name := "sched"
			if c >= 0 {
				name = "sched CPU" + strconv.Itoa(c)
			}
			pw.meta(3, c+2, "thread_name", name)
		}
	}

	// Per-CPU occupancy machine: open "run" slices close at the next
	// dispatch on the CPU, at an explicit stop event for the job
	// (preempt, block, abort), or at its completion. occ holds each
	// CPU's open slice and byJob the CPU of each job's open slice.
	occ := map[int]openSlice{}
	byJob := map[jobKey]int{}
	closeSlice := func(s openSlice, to rtime.Time) {
		delete(occ, s.cpu)
		delete(byJob, jobKey{s.task, s.seq})
		pw.span(1, s.task+1, s.from, to)
		pw.b = append(pw.b, `,"name":"run","args":{"seq":`...)
		pw.b = strconv.AppendInt(pw.b, int64(s.seq), 10)
		pw.b = append(pw.b, `,"cpu":`...)
		pw.b = strconv.AppendInt(pw.b, int64(s.cpu), 10)
		pw.b = append(pw.b, "}}"...)
		pw.span(2, s.cpu+1, s.from, to)
		pw.b = append(pw.b, `,"name":"J[`...)
		pw.b = strconv.AppendInt(pw.b, int64(s.task), 10)
		pw.b = append(pw.b, ',')
		pw.b = strconv.AppendInt(pw.b, int64(s.seq), 10)
		pw.b = append(pw.b, `]"}`...)
	}
	closeJob := func(k jobKey, at rtime.Time) {
		if c, ok := byJob[k]; ok {
			closeSlice(occ[c], at)
		}
	}
	for k := range events {
		e := &events[k]
		if idx != nil {
			e = &events[idx[k]]
		}
		switch e.Kind {
		case Dispatch:
			c := cpu0(e.CPU)
			if s, ok := occ[c]; ok {
				closeSlice(s, e.At)
			}
			// A migrating job may still have a stale slice on another CPU.
			job := jobKey{e.Task, e.Seq}
			closeJob(job, e.At)
			occ[c] = openSlice{task: e.Task, seq: e.Seq, cpu: c, from: e.At}
			byJob[job] = c
		case Preempt, Block, Complete, AbortBegin:
			closeJob(jobKey{e.Task, e.Seq}, e.At)
		}
		switch e.Kind {
		case Arrival, Commit, Retry, Block, LockAcquire, LockRelease, AbortBegin, AbortDone, Complete,
			FaultArrival, FaultOverrun, FaultRetry, Shed:
			pw.instant(1, e.Task+1, e.At, e.Kind.String())
			pw.b = append(pw.b, `{"seq":`...)
			pw.b = strconv.AppendInt(pw.b, int64(e.Seq), 10)
			if e.Object >= 0 {
				pw.b = append(pw.b, `,"object":`...)
				pw.b = strconv.AppendInt(pw.b, int64(e.Object), 10)
			}
			pw.b = append(pw.b, "}}"...)
		case SchedPass, FaultStall:
			pw.instant(3, e.CPU+2, e.At, e.Kind.String())
			pw.b = append(pw.b, `{"ops":`...)
			pw.b = strconv.AppendInt(pw.b, e.Ops, 10)
			pw.b = append(pw.b, "}}"...)
		case FeasOK, FeasFail:
			pw.instant(3, e.CPU+2, e.At, e.Kind.String())
			pw.b = append(pw.b, `{"task":`...)
			pw.b = strconv.AppendInt(pw.b, int64(e.Task), 10)
			pw.b = append(pw.b, `,"seq":`...)
			pw.b = strconv.AppendInt(pw.b, int64(e.Seq), 10)
			pw.b = append(pw.b, `,"ops":`...)
			pw.b = strconv.AppendInt(pw.b, e.Ops, 10)
			pw.b = append(pw.b, "}}"...)
		}
	}
	// Close slices left open at the end of the trace, CPU order for
	// determinism.
	for _, c := range sortedKeys(occ) {
		closeSlice(occ[c], end)
	}
	return append(pw.b, "\n]}\n"...)
}

type jobKey struct{ task, seq int }

// openSlice is a "run" slice waiting for its end.
type openSlice struct {
	task, seq, cpu int
	from           rtime.Time
}

// cpu0 maps "no CPU recorded" (uniprocessor traces predating the CPU
// field use 0 already; -1 marks unbound events) onto processor 0.
func cpu0(c int) int {
	if c < 0 {
		return 0
	}
	return c
}

func sortedKeys[V any](set map[int]V) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// perfettoWriter appends trace-event objects one per line, tracking the
// need for separating commas.
type perfettoWriter struct {
	b     []byte
	wrote bool
}

// obj opens one object: `{"ph":"<ph>","pid":<pid>,"tid":<tid>`.
func (p *perfettoWriter) obj(ph string, pid, tid int) {
	if p.wrote {
		p.b = append(p.b, ",\n"...)
	} else {
		p.b = append(p.b, '\n')
		p.wrote = true
	}
	p.b = append(p.b, `{"ph":"`...)
	p.b = append(p.b, ph...)
	p.b = append(p.b, `","pid":`...)
	p.b = strconv.AppendInt(p.b, int64(pid), 10)
	p.b = append(p.b, `,"tid":`...)
	p.b = strconv.AppendInt(p.b, int64(tid), 10)
}

func (p *perfettoWriter) meta(pid, tid int, name, value string) {
	p.obj("M", pid, tid)
	p.b = append(p.b, `,"name":`...)
	p.b = strconv.AppendQuote(p.b, name)
	p.b = append(p.b, `,"args":{"name":`...)
	p.b = strconv.AppendQuote(p.b, value)
	p.b = append(p.b, "}}"...)
}

// span opens a complete ("X") object up to its name.
func (p *perfettoWriter) span(pid, tid int, from, to rtime.Time) {
	p.obj("X", pid, tid)
	p.b = append(p.b, `,"ts":`...)
	p.b = strconv.AppendInt(p.b, from.Micros(), 10)
	p.b = append(p.b, `,"dur":`...)
	p.b = strconv.AppendInt(p.b, to.Sub(from).Micros(), 10)
}

// instant opens an instant ("i") object up to its args value.
func (p *perfettoWriter) instant(pid, tid int, at rtime.Time, name string) {
	p.obj("i", pid, tid)
	p.b = append(p.b, `,"ts":`...)
	p.b = strconv.AppendInt(p.b, at.Micros(), 10)
	p.b = append(p.b, `,"s":"t","name":`...)
	p.b = strconv.AppendQuote(p.b, name)
	p.b = append(p.b, `,"args":`...)
}
