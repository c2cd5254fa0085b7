package series_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics/series"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// ev is shorthand for a job event.
func ev(at rtime.Time, k trace.Kind) trace.Event {
	return trace.Event{At: at, Kind: k, Task: 0, Seq: 0, Object: -1, CPU: 0}
}

func TestFoldHandBuilt(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.Arrival),
		ev(2, trace.Dispatch),
		ev(5, trace.Retry),
		ev(7, trace.Commit),
		ev(12, trace.Preempt),
		ev(15, trace.Dispatch),
		ev(20, trace.Complete),
		{At: 4, Kind: trace.SchedPass, Task: -1, Seq: -1, Object: -1, Ops: 9},
	}
	s, err := series.FromEvents(events, 30, series.Config{Window: 10, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 || s.End != 30 || s.Window != 10 {
		t.Fatalf("series shape: %+v", s)
	}
	p0, p1, p2 := s.Points[0], s.Points[1], s.Points[2]
	if p0.Arrivals != 1 || p0.Retries != 1 || p0.Commits != 1 || p0.SchedPasses != 1 || p0.SchedOps != 9 {
		t.Fatalf("window 0 deltas: %+v", p0)
	}
	// ready over [0,2), busy over [2,10).
	if p0.ReadyTicks != 2 || p0.BusyTicks != 8 || p0.ReadyMax != 1 || p0.BusyMax != 1 {
		t.Fatalf("window 0 levels: %+v", p0)
	}
	// busy [10,12), ready [12,15), busy [15,20); preempt counted here.
	if p1.Preempts != 1 || p1.ReadyTicks != 3 || p1.BusyTicks != 7 {
		t.Fatalf("window 1: %+v", p1)
	}
	// Completion at the exact t=20 boundary lands in window 2.
	if p2.Completions != 1 || p2.ReadyTicks != 0 || p2.BusyTicks != 0 {
		t.Fatalf("window 2: %+v", p2)
	}
	tot := s.Totals()
	if tot.Arrivals != 1 || tot.Completions != 1 || tot.Retries != 1 || tot.Preempts != 1 {
		t.Fatalf("totals: %+v", tot)
	}
	if s.Covered(2) != 10 {
		t.Fatalf("covered(2) = %v", s.Covered(2))
	}
}

func TestFoldErrors(t *testing.T) {
	if _, err := series.FromEvents(nil, 10, series.Config{}); !errors.Is(err, series.ErrConfig) {
		t.Fatal("zero window accepted")
	}
	bad := []trace.Event{ev(1, trace.Dispatch)}
	if _, err := series.FromEvents(bad, 10, series.Config{Window: 5}); !errors.Is(err, series.ErrTrace) {
		t.Fatal("dispatch before arrival accepted")
	}
	dup := []trace.Event{ev(0, trace.Arrival), ev(1, trace.Arrival)}
	if _, err := series.FromEvents(dup, 10, series.Config{Window: 5}); !errors.Is(err, series.ErrTrace) {
		t.Fatal("duplicate arrival accepted")
	}
	late := []trace.Event{ev(0, trace.Arrival), ev(1, trace.Complete), ev(2, trace.Dispatch)}
	if _, err := series.FromEvents(late, 10, series.Config{Window: 5}); !errors.Is(err, series.ErrTrace) {
		t.Fatal("event after departure accepted")
	}
}

func TestWindowFor(t *testing.T) {
	if w := series.WindowFor(1200, 0); w != 10 {
		t.Fatalf("WindowFor(1200, default) = %v", w)
	}
	if w := series.WindowFor(5, 100); w != 1 {
		t.Fatalf("tiny horizon window = %v", w)
	}
}

// TestAgainstEngine cross-checks the fold against the uniprocessor
// engine's own counters: an observer-fed Stream's totals must match
// sim.Result exactly, and the busy level can never exceed one CPU.
func TestAgainstEngine(t *testing.T) {
	tasks := make([]*task.Task, 4)
	for i := range tasks {
		tasks[i] = &task.Task{
			ID: i, Name: "T", TUF: tuf.MustStep(float64(10*(i+1)), 4000),
			Arrival:  uam.Spec{L: 1, A: 2, W: 8000},
			Segments: task.InterleavedSegments(600, 2, []int{i % 2, (i + 1) % 2}),
		}
		if err := tasks[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	const horizon = 60_000
	fold, err := series.NewStream(series.Config{Window: 1000, CPUs: 1}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Tasks: tasks, Scheduler: rua.NewLockFree(), Mode: sim.LockFree,
		R: 150, S: 5, OpCost: 0.02, Horizon: horizon,
		ArrivalKind: uam.KindJittered, Seed: 3, ConservativeRetry: true,
		Observer: fold.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fold.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tot := s.Totals()
	if tot.Arrivals != res.Arrivals {
		t.Fatalf("arrivals %d != result %d", tot.Arrivals, res.Arrivals)
	}
	if tot.Completions != res.Completions {
		t.Fatalf("completions %d != result %d", tot.Completions, res.Completions)
	}
	if tot.Aborts != res.Aborts {
		t.Fatalf("aborts %d != result %d", tot.Aborts, res.Aborts)
	}
	if tot.Retries != res.Retries {
		t.Fatalf("retries %d != result %d", tot.Retries, res.Retries)
	}
	if tot.Arrivals == 0 {
		t.Fatal("workload produced no arrivals; test is vacuous")
	}
	if tot.BusyMax > 1 {
		t.Fatalf("uniprocessor busy level reached %d", tot.BusyMax)
	}
	for i := range s.Points {
		if dt := int64(s.Covered(i)); s.Points[i].BusyTicks > dt {
			t.Fatalf("window %d busy integral %d exceeds its width %d", i, s.Points[i].BusyTicks, dt)
		}
	}
}

func TestWriteCSVDeterministic(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.Arrival), ev(1, trace.Dispatch), ev(9, trace.Complete),
	}
	render := func() string {
		s, err := series.FromEvents(events, 20, series.Config{Window: 8, CPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("CSV render not deterministic:\n%s\n---\n%s", a, b)
	}
	rows, err := csv.NewReader(strings.NewReader(a)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + ceil(20/8) windows
		t.Fatalf("rows = %d:\n%s", len(rows), a)
	}
	// Window 1 holds the completion; its mean busy over [8,16) is 1/8.
	if rows[2][2] != "1" || rows[2][12] != "0.1250" {
		t.Fatalf("window 1 row = %v", rows[2])
	}
}

// TestMaxAttemptTrack: the window where an operation commits reports
// the operation's full attempt count (1 + its retries), even when the
// retries happened in earlier windows; aborts drop the open counter.
func TestMaxAttemptTrack(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.Arrival),
		ev(2, trace.Dispatch),
		ev(5, trace.Retry),
		ev(8, trace.Retry),
		ev(13, trace.Commit), // 3 attempts, committed in window 1
		ev(15, trace.Commit), // clean second access: 1 attempt
		ev(20, trace.Complete),
		{At: 0, Kind: trace.Arrival, Task: 1, Seq: 0, Object: -1},
		{At: 3, Kind: trace.Retry, Task: 1, Seq: 0, Object: 2},
		{At: 6, Kind: trace.AbortBegin, Task: 1, Seq: 0, Object: -1},
		{At: 7, Kind: trace.AbortDone, Task: 1, Seq: 0, Object: -1},
	}
	s, err := series.FromEvents(events, 30, series.Config{Window: 10, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Points[0].MaxAttempt; got != 0 {
		t.Fatalf("window 0 MaxAttempt = %d, want 0 (nothing committed; abort dropped its counter)", got)
	}
	if got := s.Points[1].MaxAttempt; got != 3 {
		t.Fatalf("window 1 MaxAttempt = %d, want 3", got)
	}
	if got := s.Totals().MaxAttempt; got != 3 {
		t.Fatalf("total MaxAttempt = %d, want 3", got)
	}
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "max_attempt") {
		t.Fatal("CSV header lacks max_attempt")
	}
}
