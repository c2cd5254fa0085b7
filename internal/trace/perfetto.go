package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/rtime"
)

// WritePerfetto renders an event stream in the Chrome trace-event JSON
// format, loadable by ui.perfetto.dev (and chrome://tracing). The
// mapping:
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
// objects are rendered by hand in fixed field order and all track
// enumerations are sorted, so equal traces produce byte-identical
// files.
func WritePerfetto(w io.Writer, events []Event) error {
	// Sort an index by time, preserving the (deterministic) input order
	// of ties. Sorting indices instead of a copy of the slice keeps the
	// export's working memory at one int per event instead of doubling
	// the (much larger) event storage at peak.
	idx := make([]int, len(events))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return events[idx[i]].At < events[idx[j]].At })

	pw := &perfettoWriter{w: w}
	pw.raw(`{"traceEvents":[`)

	// Track inventory, sorted for stable metadata order.
	taskSet := map[int]bool{}
	cpuSet := map[int]bool{}
	schedCPUSet := map[int]bool{}
	var end rtime.Time
	for _, e := range events {
		if e.Task >= 0 {
			taskSet[e.Task] = true
		}
		switch e.Kind {
		case Dispatch:
			cpuSet[cpu0(e.CPU)] = true
		case SchedPass, FeasOK, FeasFail, FaultStall:
			schedCPUSet[e.CPU] = true
		}
		if e.At > end {
			end = e.At
		}
	}
	pw.meta(1, 0, "process_name", "tasks")
	for _, t := range sortedKeys(taskSet) {
		pw.meta(1, t+1, "thread_name", fmt.Sprintf("T%d", t))
	}
	if len(cpuSet) > 0 {
		pw.meta(2, 0, "process_name", "cpus")
		for _, c := range sortedKeys(cpuSet) {
			pw.meta(2, c+1, "thread_name", fmt.Sprintf("CPU%d", c))
		}
	}
	if len(schedCPUSet) > 0 {
		pw.meta(3, 0, "process_name", "scheduler")
		for _, c := range sortedKeys(schedCPUSet) {
			name := "sched"
			if c >= 0 {
				name = fmt.Sprintf("sched CPU%d", c)
			}
			pw.meta(3, c+2, "thread_name", name)
		}
	}

	// Per-CPU occupancy machine: open "run" slices close at the next
	// dispatch on the CPU, at an explicit stop event for the job
	// (preempt, block, abort), or at its completion.
	type openSlice struct {
		task, seq, cpu int
		from           rtime.Time
	}
	occ := map[int]*openSlice{}      // cpu → open slice
	byJob := map[jobKey]*openSlice{} // job → its open slice
	closeSlice := func(s *openSlice, to rtime.Time) {
		delete(occ, s.cpu)
		delete(byJob, jobKey{s.task, s.seq})
		pw.slice(1, s.task+1, s.from, to, "run", fmt.Sprintf(`{"seq":%d,"cpu":%d}`, s.seq, s.cpu))
		pw.slice(2, s.cpu+1, s.from, to, fmt.Sprintf("J[%d,%d]", s.task, s.seq), "")
	}
	for _, i := range idx {
		e := events[i]
		switch e.Kind {
		case Dispatch:
			c := cpu0(e.CPU)
			if s := occ[c]; s != nil {
				closeSlice(s, e.At)
			}
			// A migrating job may still have a stale slice on another CPU.
			if s := byJob[jobKey{e.Task, e.Seq}]; s != nil {
				closeSlice(s, e.At)
			}
			s := &openSlice{task: e.Task, seq: e.Seq, cpu: c, from: e.At}
			occ[c] = s
			byJob[jobKey{e.Task, e.Seq}] = s
		case Preempt, Block, Complete, AbortBegin:
			if s := byJob[jobKey{e.Task, e.Seq}]; s != nil {
				closeSlice(s, e.At)
			}
		}
		switch e.Kind {
		case Arrival, Commit, Retry, Block, LockAcquire, LockRelease, AbortBegin, AbortDone, Complete,
			FaultArrival, FaultOverrun, FaultRetry, Shed:
			args := fmt.Sprintf(`{"seq":%d}`, e.Seq)
			if e.Object >= 0 {
				args = fmt.Sprintf(`{"seq":%d,"object":%d}`, e.Seq, e.Object)
			}
			pw.instant(1, e.Task+1, e.At, e.Kind.String(), args)
		case SchedPass:
			pw.instant(3, e.CPU+2, e.At, "sched-pass", fmt.Sprintf(`{"ops":%d}`, e.Ops))
		case FaultStall:
			pw.instant(3, e.CPU+2, e.At, "fault-stall", fmt.Sprintf(`{"ops":%d}`, e.Ops))
		case FeasOK, FeasFail:
			pw.instant(3, e.CPU+2, e.At, e.Kind.String(),
				fmt.Sprintf(`{"task":%d,"seq":%d,"ops":%d}`, e.Task, e.Seq, e.Ops))
		}
	}
	// Close slices left open at the end of the trace, CPU order for
	// determinism.
	open := make([]int, 0, len(occ))
	for c := range occ {
		open = append(open, c)
	}
	sort.Ints(open)
	for _, c := range open {
		closeSlice(occ[c], end)
	}

	pw.raw("\n]}\n")
	return pw.err
}

type jobKey struct{ task, seq int }

// cpu0 maps "no CPU recorded" (uniprocessor traces predating the CPU
// field use 0 already; -1 marks unbound events) onto processor 0.
func cpu0(c int) int {
	if c < 0 {
		return 0
	}
	return c
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// perfettoWriter streams trace-event objects one per line, tracking the
// first write error and the need for separating commas.
type perfettoWriter struct {
	w     io.Writer
	err   error
	wrote bool
}

func (p *perfettoWriter) raw(s string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, s)
}

func (p *perfettoWriter) obj(body string) {
	if p.wrote {
		p.raw(",\n")
	} else {
		p.raw("\n")
		p.wrote = true
	}
	p.raw(body)
}

func (p *perfettoWriter) meta(pid, tid int, name, value string) {
	p.obj(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":%q,"args":{"name":%q}}`, pid, tid, name, value))
}

func (p *perfettoWriter) slice(pid, tid int, from, to rtime.Time, name, args string) {
	body := fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%q`,
		pid, tid, from.Micros(), to.Sub(from).Micros(), name)
	if args != "" {
		body += `,"args":` + args
	}
	p.obj(body + "}")
}

func (p *perfettoWriter) instant(pid, tid int, at rtime.Time, name, args string) {
	body := fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%d,"s":"t","name":%q`,
		pid, tid, at.Micros(), name)
	if args != "" {
		body += `,"args":` + args
	}
	p.obj(body + "}")
}
