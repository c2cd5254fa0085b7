package check_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/trace/check"
	"repro/internal/trace/span"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func testTasks() []*task.Task {
	return []*task.Task{
		{ID: 0, Name: "T0", TUF: tuf.MustStep(1, 2000),
			Arrival:  uam.Spec{L: 0, A: 2, W: 4000},
			Segments: task.InterleavedSegments(300, 2, []int{0, 1})},
		{ID: 1, Name: "T1", TUF: tuf.MustStep(1, 1500),
			Arrival:  uam.Spec{L: 0, A: 1, W: 3000},
			Segments: task.InterleavedSegments(200, 2, []int{1, 0})},
	}
}

func completedSpan(tsk, seq int, retries int64, sojourn rtime.Duration) span.JobSpan {
	return span.JobSpan{
		Task: tsk, Seq: seq, Arrival: 0, End: rtime.Time(sojourn),
		Outcome: span.Completed, Retries: retries,
		Segments: []span.Segment{{From: 0, To: rtime.Time(sojourn), Kind: span.Run}},
	}
}

const (
	testR = 100 * rtime.Microsecond
	testS = 5 * rtime.Microsecond
)

func TestCheckWithinBounds(t *testing.T) {
	tasks := testTasks()
	spans := []span.JobSpan{
		completedSpan(0, 0, 1, 400*rtime.Microsecond),
		completedSpan(1, 0, 0, 250*rtime.Microsecond),
	}
	rep, err := check.Check(spans, tasks, check.Config{
		Theorem2: true, Theorem3: true, R: testR, S: testS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("unexpected violations: %+v", rep.Violations)
	}
	if len(rep.Tasks) != 2 || rep.Tasks[0].Jobs != 1 || rep.Tasks[0].Completed != 1 {
		t.Fatalf("report = %+v", rep.Tasks)
	}
	if rep.Tasks[0].RetryBound < 0 || rep.Tasks[0].SojournBound < 0 {
		t.Fatalf("bounds not evaluated: %+v", rep.Tasks[0])
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bounds: OK") {
		t.Fatalf("rendering:\n%s", buf.String())
	}
}

func TestCheckTheorem2Violation(t *testing.T) {
	tasks := testTasks()
	fb, err := analysis.RetryBound(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	spans := []span.JobSpan{completedSpan(0, 0, fb+1, 400*rtime.Microsecond)}
	rep, err := check.Check(spans, tasks, check.Config{
		Theorem2: true, R: testR, S: testS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %+v", rep.Violations)
	}
	v := rep.Violations[0]
	if v.Theorem != 2 || v.Observed != fb+1 || v.Bound != fb {
		t.Fatalf("violation = %+v", v)
	}
	if !errors.Is(rep.Err(), check.ErrViolation) {
		t.Fatalf("Err() = %v", rep.Err())
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "theorem 2: J[0,0]") {
		t.Fatalf("rendering:\n%s", buf.String())
	}
}

func TestCheckTheorem3Violation(t *testing.T) {
	tasks := testTasks()
	spans := []span.JobSpan{completedSpan(0, 0, 0, 3600*rtime.Second)}
	rep, err := check.Check(spans, tasks, check.Config{
		Theorem3: true, R: testR, S: testS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Theorem != 3 {
		t.Fatalf("violations = %+v", rep.Violations)
	}
}

func TestCheckLockBasedSkipsTheorem2(t *testing.T) {
	tasks := testTasks()
	// A retry count far past any Theorem 2 bound must not trip under
	// lock-based sharing, where the theorem does not apply.
	spans := []span.JobSpan{completedSpan(0, 0, 1_000_000, 400*rtime.Microsecond)}
	rep, err := check.Check(spans, tasks, check.Config{
		Theorem2: true, Theorem3: true, LockBased: true, R: testR, S: testS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unexpected violations: %+v", rep.Violations)
	}
	if rep.Tasks[0].RetryBound != -1 {
		t.Fatalf("retry bound should be unevaluated, got %d", rep.Tasks[0].RetryBound)
	}
	if rep.Tasks[0].SojournBound < 0 {
		t.Fatal("lock-based sojourn bound not evaluated")
	}
}

func TestCheckUnfinishedJobsSkipTheorem3(t *testing.T) {
	tasks := testTasks()
	// An unfinished span with a huge lifetime has no sojourn to check.
	s := completedSpan(0, 0, 0, 3600*rtime.Second)
	s.Outcome = span.Unfinished
	rep, err := check.Check([]span.JobSpan{s}, tasks, check.Config{
		Theorem3: true, R: testR, S: testS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unexpected violations: %+v", rep.Violations)
	}
	if rep.Tasks[0].Completed != 0 || rep.Tasks[0].Jobs != 1 {
		t.Fatalf("report = %+v", rep.Tasks[0])
	}
}

func TestCheckErrors(t *testing.T) {
	tasks := testTasks()
	if _, err := check.Check([]span.JobSpan{completedSpan(7, 0, 0, 100)}, tasks,
		check.Config{}); err == nil {
		t.Fatal("unknown span task not rejected")
	}
	dup := []*task.Task{tasks[0], tasks[0]}
	if _, err := check.Check(nil, dup, check.Config{}); err == nil {
		t.Fatal("duplicate task id not rejected")
	}
}
