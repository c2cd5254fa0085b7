package span_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/uam"
)

func ev(at int64, kind trace.Kind, tsk, seq, obj, cpu int) trace.Event {
	return trace.Event{At: rtime.Time(at), Kind: kind, Task: tsk, Seq: seq, Object: obj, CPU: cpu}
}

func TestBuildFoldsOneJob(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.Arrival, 0, 0, -1, 0),
		ev(10, trace.Dispatch, 0, 0, -1, 0),
		ev(30, trace.Preempt, 0, 0, -1, 0),
		ev(50, trace.Dispatch, 0, 0, -1, 0),
		ev(55, trace.Retry, 0, 0, 2, 0),
		ev(70, trace.Commit, 0, 0, 2, 0),
		ev(90, trace.Complete, 0, 0, -1, 0),
	}
	spans, err := span.Build(events, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Outcome != span.Completed || s.Arrival != 0 || s.End != 90 {
		t.Fatalf("span = %+v", s)
	}
	if s.Sojourn() != 90 || s.Retries != 1 || s.Commits != 1 || s.Dispatches != 2 {
		t.Fatalf("derived stats wrong: %+v", s)
	}
	if s.RunTime != 60 || s.ReadyTime != 30 {
		t.Fatalf("run=%v ready=%v, want 60/30", s.RunTime, s.ReadyTime)
	}
	want := []span.Segment{
		{From: 0, To: 10, Kind: span.Ready, CPU: -1},
		{From: 10, To: 30, Kind: span.Run, CPU: 0},
		{From: 30, To: 50, Kind: span.Ready, CPU: -1},
		{From: 50, To: 90, Kind: span.Run, CPU: 0},
	}
	if len(s.Segments) != len(want) {
		t.Fatalf("segments: %+v", s.Segments)
	}
	for i, seg := range s.Segments {
		if seg != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, seg, want[i])
		}
	}
}

func TestBuildBlockAbortAndUnfinished(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.Arrival, 1, 0, -1, 0),
		ev(5, trace.Dispatch, 1, 0, -1, 0),
		ev(20, trace.Block, 1, 0, 3, 0),
		ev(40, trace.Dispatch, 1, 0, -1, 0),
		ev(60, trace.AbortBegin, 1, 0, -1, 0),
		ev(75, trace.AbortDone, 1, 0, -1, 0),
		ev(10, trace.Arrival, 2, 0, -1, 0),
	}
	spans, err := span.Build(events, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	ab := spans[0]
	if ab.Outcome != span.Aborted || ab.End != 75 || ab.BlockedTime != 20 || ab.AbortTime != 15 {
		t.Fatalf("aborted span = %+v", ab)
	}
	if ab.Sojourn() != 0 {
		t.Fatalf("aborted job must have zero sojourn, got %v", ab.Sojourn())
	}
	un := spans[1]
	if un.Outcome != span.Unfinished || un.End != 100 || un.ReadyTime != 90 {
		t.Fatalf("unfinished span = %+v", un)
	}
}

func TestBuildSchedulerEventsIgnored(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.Arrival, Task: 0, Seq: 0, Object: -1},
		{At: 1, Kind: trace.SchedPass, Task: -1, Seq: -1, Object: -1, Ops: 9},
		{At: 1, Kind: trace.FeasOK, Task: 0, Seq: 0, Object: -1, Ops: 4},
		{At: 1, Kind: trace.FeasFail, Task: 0, Seq: 0, Object: -1, Ops: 4},
		{At: 2, Kind: trace.Dispatch, Task: 0, Seq: 0, Object: -1},
		{At: 8, Kind: trace.Complete, Task: 0, Seq: 0, Object: -1},
	}
	spans, err := span.Build(events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || len(spans[0].Segments) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestBuildMalformedTraces(t *testing.T) {
	cases := [][]trace.Event{
		{ev(0, trace.Dispatch, 0, 0, -1, 0)},                                   // before arrival
		{ev(0, trace.Arrival, 0, 0, -1, 0), ev(1, trace.Arrival, 0, 0, -1, 0)}, // duplicate
		{ // event after departure
			ev(0, trace.Arrival, 0, 0, -1, 0),
			ev(1, trace.Complete, 0, 0, -1, 0),
			ev(2, trace.Dispatch, 0, 0, -1, 0),
		},
	}
	for i, events := range cases {
		if _, err := span.Build(events, 10); !errors.Is(err, span.ErrTrace) {
			t.Errorf("case %d: err = %v, want ErrTrace", i, err)
		}
	}
}

func TestWritersDeterministic(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.Arrival, 0, 0, -1, 0),
		ev(5, trace.Dispatch, 0, 0, -1, 0),
		ev(25, trace.Complete, 0, 0, -1, 0),
	}
	spans, err := span.Build(events, 30)
	if err != nil {
		t.Fatal(err)
	}
	var a, b, ja, jb bytes.Buffer
	if err := span.WriteText(&a, spans); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteText(&b, spans); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteJSON(&ja, spans); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteJSON(&jb, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("writers are not deterministic")
	}
	if !strings.Contains(a.String(), "J[0,0]") || !strings.Contains(ja.String(), `"sojourn_us": 25`) {
		t.Fatalf("unexpected renderings:\n%s\n%s", a.String(), ja.String())
	}
}

// jobsOf flattens a result's jobs into a (task, seq) → job lookup.
func jobsOf(all []*task.Job) map[[2]int]*task.Job {
	m := make(map[[2]int]*task.Job, len(all))
	for _, j := range all {
		m[[2]int{j.Task.ID, j.Seq}] = j
	}
	return m
}

// checkInvariants asserts the span model against engine ground truth:
// spans tile [Arrival, End), Run segments never overlap on a CPU,
// per-job retry counts match task.Job.Retries (and sum to
// sim.Result.Retries), and completed spans' sojourns match the jobs'.
func checkInvariants(t *testing.T, spans []span.JobSpan, jobs map[[2]int]*task.Job, totalRetries int64, horizon rtime.Time) {
	t.Helper()
	if len(spans) != len(jobs) {
		t.Fatalf("%d spans for %d jobs", len(spans), len(jobs))
	}
	type runSeg struct {
		from, to rtime.Time
	}
	perCPU := map[int][]runSeg{}
	var cpus []int
	var spanRetries int64
	for i := range spans {
		s := &spans[i]
		j := jobs[[2]int{s.Task, s.Seq}]
		if j == nil {
			t.Fatalf("span for unknown job J[%d,%d]", s.Task, s.Seq)
		}
		if s.Arrival != j.Arrival {
			t.Fatalf("J[%d,%d] arrival %v != job %v", s.Task, s.Seq, s.Arrival, j.Arrival)
		}
		if s.Retries != j.Retries {
			t.Fatalf("J[%d,%d] span retries %d != job retries %d", s.Task, s.Seq, s.Retries, j.Retries)
		}
		spanRetries += s.Retries
		if s.Outcome == span.Completed {
			if j.State != task.Completed {
				t.Fatalf("J[%d,%d] span completed, job state %v", s.Task, s.Seq, j.State)
			}
			if s.Sojourn() != j.Sojourn() {
				t.Fatalf("J[%d,%d] span sojourn %v != job sojourn %v", s.Task, s.Seq, s.Sojourn(), j.Sojourn())
			}
		}
		// Tiling: contiguous segments covering [Arrival, End) exactly.
		var sum rtime.Duration
		pos := s.Arrival
		for _, seg := range s.Segments {
			if seg.From != pos || seg.To <= seg.From {
				t.Fatalf("J[%d,%d] segment %+v breaks tiling at %v", s.Task, s.Seq, seg, pos)
			}
			pos = seg.To
			sum += seg.Dur()
			if seg.Kind == span.Run {
				if _, seen := perCPU[seg.CPU]; !seen {
					cpus = append(cpus, seg.CPU)
				}
				perCPU[seg.CPU] = append(perCPU[seg.CPU], runSeg{seg.From, seg.To})
			}
		}
		if pos != s.End {
			t.Fatalf("J[%d,%d] segments end at %v, span ends at %v", s.Task, s.Seq, pos, s.End)
		}
		if sum != s.End.Sub(s.Arrival) {
			t.Fatalf("J[%d,%d] segment durations sum to %v, lifetime %v", s.Task, s.Seq, sum, s.Lifetime())
		}
		if s.End > horizon {
			t.Fatalf("J[%d,%d] ends past the horizon: %v > %v", s.Task, s.Seq, s.End, horizon)
		}
	}
	if spanRetries != totalRetries {
		t.Fatalf("span retries %d != result retries %d", spanRetries, totalRetries)
	}
	sort.Ints(cpus)
	for _, cpu := range cpus {
		segs := perCPU[cpu]
		sort.Slice(segs, func(a, b int) bool { return segs[a].from < segs[b].from })
		for i := 1; i < len(segs); i++ {
			if segs[i].from < segs[i-1].to {
				t.Fatalf("cpu %d: run segments overlap: [%v,%v) and [%v,%v)",
					cpu, segs[i-1].from, segs[i-1].to, segs[i].from, segs[i].to)
			}
		}
	}
}

// TestSpanInvariantsProperty runs randomized UAM workloads through all
// three simulators in both modes and asserts the span invariants
// against each engine's ground truth.
func TestSpanInvariantsProperty(t *testing.T) {
	specs := []experiment.WorkloadSpec{
		{NumTasks: 4, NumObjects: 2, AccessesPerJob: 3, MeanExec: 200 * rtime.Microsecond,
			TargetAL: 0.9, MaxArrivals: 2},
		{NumTasks: 6, NumObjects: 3, AccessesPerJob: 4, MeanExec: 300 * rtime.Microsecond,
			TargetAL: 1.2, MaxArrivals: 2, AbortCost: 20 * rtime.Microsecond},
		{NumTasks: 3, NumObjects: 1, AccessesPerJob: 2, MeanExec: 150 * rtime.Microsecond,
			TargetAL: 0.6, MaxArrivals: 1, Class: experiment.HeterogeneousTUFs},
	}
	for si, spec := range specs {
		for _, lockBased := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("spec%d/lockBased=%v/seed=%d", si, lockBased, seed)
				t.Run("uni/"+name, func(t *testing.T) {
					tasks, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					horizon := rtime.Time(40 * int64(tasks[len(tasks)-1].CriticalTime()))
					mode := sim.LockFree
					var s *rua.RUA
					if lockBased {
						mode, s = sim.LockBased, rua.NewLockBased()
					} else {
						s = rua.NewLockFree()
					}
					rec := trace.NewRecorder(0)
					res, err := sim.Run(sim.Config{
						Tasks: tasks, Scheduler: s, Mode: mode,
						R: 100 * rtime.Microsecond, S: 5 * rtime.Microsecond,
						OpCost: 0.02, Horizon: horizon,
						ArrivalKind: uam.KindJittered, Seed: seed,
						ConservativeRetry: true, Observer: rec.Record, KeepJobs: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					spans, err := span.Build(rec.Events(), horizon)
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, spans, jobsOf(res.Jobs), res.Retries, horizon)
				})
				if spec.AbortCost != 0 {
					continue // the global engine models instantaneous abort handlers only
				}
				t.Run("global/"+name, func(t *testing.T) {
					tasks, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					horizon := rtime.Time(40 * int64(tasks[len(tasks)-1].CriticalTime()))
					mode := sim.LockFree
					var s *rua.RUA
					if lockBased {
						mode, s = sim.LockBased, rua.NewLockBased()
					} else {
						s = rua.NewLockFree()
					}
					rec := trace.NewRecorder(0)
					res, err := sim.RunGlobal(sim.Config{
						Tasks: tasks, Scheduler: s, Mode: mode,
						R: 100 * rtime.Microsecond, S: 5 * rtime.Microsecond,
						OpCost: 0.02, Horizon: horizon,
						ArrivalKind: uam.KindJittered, Seed: seed,
						Observer: rec.Record, KeepJobs: true,
					}, 2)
					if err != nil {
						t.Fatal(err)
					}
					spans, err := span.Build(rec.Events(), horizon)
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, spans, jobsOf(res.Jobs), res.Retries, horizon)
				})
				t.Run("multi/"+name, func(t *testing.T) {
					tasks, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					horizon := rtime.Time(40 * int64(tasks[len(tasks)-1].CriticalTime()))
					mode := sim.LockFree
					if lockBased {
						mode = sim.LockBased
					}
					rec := trace.NewRecorder(0)
					res, err := multi.Run(sim.Config{
						Tasks: tasks, Mode: mode,
						R: 100 * rtime.Microsecond, S: 5 * rtime.Microsecond,
						OpCost: 0.02, Horizon: horizon,
						ArrivalKind: uam.KindJittered, Seed: seed,
						ConservativeRetry: true, Observer: rec.Record,
					}, 2, nil)
					if err != nil {
						t.Fatal(err)
					}
					var all []*task.Job
					var retries int64
					for _, r := range res.PerCPU {
						all = append(all, r.Jobs...)
						retries += r.Retries
					}
					spans, err := span.Build(rec.Events(), horizon)
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, spans, jobsOf(all), retries, horizon)
				})
			}
		}
	}
}
