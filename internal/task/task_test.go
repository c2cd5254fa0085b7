package task

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rtime"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func sampleTask(id int, u rtime.Duration, m int, objs []int) *Task {
	return &Task{
		ID:        id,
		Name:      "T",
		TUF:       tuf.MustStep(10, 1000),
		Arrival:   uam.Spec{L: 0, A: 2, W: 2000},
		Segments:  InterleavedSegments(u, m, objs),
		AbortCost: 5,
	}
}

func TestValidateGood(t *testing.T) {
	tk := sampleTask(1, 100, 3, []int{0, 1})
	if err := tk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateBad(t *testing.T) {
	base := sampleTask(1, 100, 1, []int{0})

	noTUF := base.Clone()
	noTUF.TUF = nil
	if err := noTUF.Validate(); !errors.Is(err, ErrInvalid) {
		t.Error("nil TUF accepted")
	}

	badArr := base.Clone()
	badArr.Arrival = uam.Spec{L: 0, A: 0, W: 100}
	if err := badArr.Validate(); err == nil {
		t.Error("bad arrival accepted")
	}

	cGtW := base.Clone()
	cGtW.Arrival = uam.Spec{L: 0, A: 1, W: 500} // C=1000 > W=500
	if err := cGtW.Validate(); !errors.Is(err, ErrInvalid) {
		t.Error("C > W accepted")
	}

	empty := base.Clone()
	empty.Segments = nil
	if err := empty.Validate(); !errors.Is(err, ErrInvalid) {
		t.Error("empty segments accepted")
	}

	zeroSeg := base.Clone()
	zeroSeg.Segments = []Segment{{Kind: Compute, D: 0}}
	if err := zeroSeg.Validate(); !errors.Is(err, ErrInvalid) {
		t.Error("zero compute segment accepted")
	}

	negObj := base.Clone()
	negObj.Segments = []Segment{{Kind: Access, Object: -1}}
	if err := negObj.Validate(); !errors.Is(err, ErrInvalid) {
		t.Error("negative object accepted")
	}
	for _, kind := range []SegmentKind{Access, Lock} {
		bigObj := base.Clone()
		bigObj.Segments = []Segment{{Kind: kind, Object: MaxObject + 1}, {Kind: Compute, D: 1}}
		if err := bigObj.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("object id above MaxObject accepted in a %d segment", kind)
		}
	}
	maxObj := base.Clone()
	maxObj.Segments = []Segment{{Kind: Compute, D: 1}, {Kind: Access, Object: MaxObject}}
	if err := maxObj.Validate(); err != nil {
		t.Errorf("object id MaxObject rejected: %v", err)
	}

	negAbort := base.Clone()
	negAbort.AbortCost = -1
	if err := negAbort.Validate(); !errors.Is(err, ErrInvalid) {
		t.Error("negative abort cost accepted")
	}
}

func TestDecomposition(t *testing.T) {
	tk := sampleTask(1, 100, 4, []int{3, 7})
	if got := tk.ComputeTime(); got != 100 {
		t.Errorf("ComputeTime = %v, want 100", got)
	}
	if got := tk.NumAccesses(); got != 4 {
		t.Errorf("NumAccesses = %d, want 4", got)
	}
	if got := tk.Demand(9); got != 100+4*9 {
		t.Errorf("Demand(9) = %v, want %v", got, 100+4*9)
	}
	objs := tk.Objects()
	if len(objs) != 2 || objs[0] != 3 || objs[1] != 7 {
		t.Errorf("Objects = %v, want [3 7]", objs)
	}
}

func TestInterleavedSegmentsNoAccess(t *testing.T) {
	segs := InterleavedSegments(50, 0, nil)
	if len(segs) != 1 || segs[0].Kind != Compute || segs[0].D != 50 {
		t.Fatalf("segments = %v", segs)
	}
}

func TestInterleavedSegmentsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-u":     func() { InterleavedSegments(0, 1, []int{0}) },
		"no-objects": func() { InterleavedSegments(10, 2, nil) },
		"neg-m":      func() { InterleavedSegments(10, -1, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestJobStepComputeOnly(t *testing.T) {
	tk := sampleTask(1, 100, 0, nil)
	j := NewJob(tk, 0, 0)
	used, ev := j.Step(40, 9)
	if used != 40 || ev != StepBudget {
		t.Fatalf("Step(40) = (%v,%v)", used, ev)
	}
	used, ev = j.Step(100, 9)
	if used != 60 || ev != StepCompleted {
		t.Fatalf("Step(100) = (%v,%v), want (60, completed)", used, ev)
	}
}

func TestJobStepAccessBoundaries(t *testing.T) {
	tk := sampleTask(1, 100, 2, []int{5})
	// Segments: C(33) A C(33) A C(34), acc = 9 → total 100 + 18.
	j := NewJob(tk, 0, 0)

	used, ev := j.Step(1000, 9)
	if ev != StepAccessStart {
		t.Fatalf("first stop = %v, want StepAccessStart", ev)
	}
	if obj, ok := j.AtAccessStart(); !ok || obj != 5 {
		t.Fatalf("AtAccessStart = (%d,%v)", obj, ok)
	}
	firstCompute := used

	used, ev = j.Step(1000, 9)
	if used != 9 || ev != StepAccessEnd {
		t.Fatalf("access step = (%v,%v), want (9, StepAccessEnd)", used, ev)
	}

	used, ev = j.Step(1000, 9)
	if ev != StepAccessStart {
		t.Fatalf("second compute stop = %v", ev)
	}
	secondCompute := used

	used, ev = j.Step(1000, 9)
	if used != 9 || ev != StepAccessEnd {
		t.Fatalf("second access = (%v,%v)", used, ev)
	}

	used, ev = j.Step(1000, 9)
	if ev != StepCompleted {
		t.Fatalf("final = %v, want StepCompleted", ev)
	}
	total := firstCompute + secondCompute + used
	if total != 100 {
		t.Fatalf("total compute = %v, want 100", total)
	}
}

func TestJobStepMidAccessPreemption(t *testing.T) {
	tk := sampleTask(1, 100, 1, []int{2})
	j := NewJob(tk, 0, 0)
	j.Step(1000, 10) // run to access start
	used, ev := j.Step(4, 10)
	if used != 4 || ev != StepBudget {
		t.Fatalf("partial access = (%v,%v)", used, ev)
	}
	if obj, ok := j.InAccess(); !ok || obj != 2 {
		t.Fatalf("InAccess = (%d,%v), want (2,true)", obj, ok)
	}
	j.RestartAccess()
	if j.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", j.Retries)
	}
	if _, ok := j.InAccess(); ok {
		t.Fatal("still InAccess after restart with zero progress")
	}
	used, ev = j.Step(1000, 10)
	if used != 10 || ev != StepAccessEnd {
		t.Fatalf("full re-access = (%v,%v)", used, ev)
	}
}

func TestRestartAccessPanicsOutsideAccess(t *testing.T) {
	tk := sampleTask(1, 100, 0, nil)
	j := NewJob(tk, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("RestartAccess outside access did not panic")
		}
	}()
	j.RestartAccess()
}

func TestRemaining(t *testing.T) {
	tk := sampleTask(1, 100, 2, []int{0})
	j := NewJob(tk, 0, 0)
	if got := j.Remaining(9); got != 118 {
		t.Fatalf("initial Remaining = %v, want 118", got)
	}
	// Step stops at the first access boundary (after the 33-tick compute
	// chunk) even with budget left.
	used, ev := j.Step(50, 9)
	if used != 33 || ev != StepAccessStart {
		t.Fatalf("Step(50) = (%v,%v), want (33, StepAccessStart)", used, ev)
	}
	if got := j.Remaining(9); got != 85 {
		t.Fatalf("Remaining after 33 = %v, want 85", got)
	}
	for {
		_, ev := j.Step(1000, 9)
		if ev == StepCompleted {
			break
		}
	}
	j.State = Completed
	if got := j.Remaining(9); got != 0 {
		t.Fatalf("Remaining after completion = %v, want 0", got)
	}
}

func TestTimeToBoundaryDoesNotMutate(t *testing.T) {
	tk := sampleTask(1, 100, 2, []int{0})
	j := NewJob(tk, 0, 0)
	before := *j
	ttb := j.TimeToBoundary(9)
	if *j != before {
		t.Fatal("TimeToBoundary mutated the job")
	}
	if ttb <= 0 || ttb >= 100 {
		t.Fatalf("TimeToBoundary = %v, expected first compute chunk", ttb)
	}
}

func TestJobTimeline(t *testing.T) {
	tk := sampleTask(1, 100, 0, nil)
	j := NewJob(tk, 3, 500)
	if j.Name() != "J[1,3]" {
		t.Fatalf("Name = %q", j.Name())
	}
	if got := j.AbsoluteCriticalTime(); got != 1500 {
		t.Fatalf("AbsoluteCriticalTime = %v, want 1500", got)
	}
	j.State = Completed
	j.Completion = 800
	if got := j.Sojourn(); got != 300 {
		t.Fatalf("Sojourn = %v, want 300", got)
	}
	if !j.MetCriticalTime() {
		t.Fatal("job completing at 800 < 1500 should meet its critical time")
	}
	if got := j.AccruedUtility(); got != 10 {
		t.Fatalf("AccruedUtility = %v, want 10", got)
	}
}

func TestAbortedJobAccruesNothing(t *testing.T) {
	tk := sampleTask(1, 100, 0, nil)
	j := NewJob(tk, 0, 0)
	j.State = Aborted
	j.AbortedAt = 1000
	if j.AccruedUtility() != 0 {
		t.Fatal("aborted job accrued utility")
	}
	if j.MetCriticalTime() {
		t.Fatal("aborted job met critical time")
	}
	if !j.Done() {
		t.Fatal("aborted job should be done")
	}
}

func TestCompletionAtCriticalTimeMisses(t *testing.T) {
	// Utility at exactly C is zero (step TUF), so completion at C is a miss.
	tk := sampleTask(1, 100, 0, nil)
	j := NewJob(tk, 0, 0)
	j.State = Completed
	j.Completion = rtime.Time(1000) // == C
	if j.MetCriticalTime() {
		t.Fatal("completion at C should not count as a meet")
	}
	if j.AccruedUtility() != 0 {
		t.Fatal("utility at C should be 0 for a step TUF")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		Ready: "ready", Running: "running", Blocked: "blocked",
		Aborting: "aborting", Completed: "completed", Aborted: "aborted",
		State(99): "state(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, w)
		}
	}
}

// Property: stepping a job in arbitrary chunk sizes always consumes
// exactly Demand(acc) in total, regardless of chunking, and the number of
// StepAccessEnd events equals m.
func TestQuickStepConservation(t *testing.T) {
	f := func(uRaw uint16, mRaw, accRaw uint8, chunks []uint8) bool {
		u := rtime.Duration(uRaw%500) + 10
		m := int(mRaw % 5)
		acc := rtime.Duration(accRaw%20) + 1
		objs := []int{0, 1, 2}
		tk := sampleTask(1, u, m, objs)
		j := NewJob(tk, 0, 0)

		var total rtime.Duration
		accessEnds := 0
		ci := 0
		for {
			budget := rtime.Duration(1)
			if ci < len(chunks) {
				budget = rtime.Duration(chunks[ci]%50) + 1
				ci++
			} else {
				budget = 1 << 40
			}
			used, ev := j.Step(budget, acc)
			total += used
			if ev == StepAccessEnd {
				accessEnds++
			}
			if ev == StepCompleted {
				break
			}
		}
		return total == tk.Demand(acc) && accessEnds == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Remaining + consumed == Demand at every point during
// execution.
func TestQuickRemainingInvariant(t *testing.T) {
	f := func(uRaw uint16, mRaw, accRaw, budRaw uint8) bool {
		u := rtime.Duration(uRaw%300) + 10
		m := int(mRaw % 4)
		acc := rtime.Duration(accRaw%15) + 1
		tk := sampleTask(1, u, m, []int{0})
		j := NewJob(tk, 0, 0)
		demand := tk.Demand(acc)
		var consumed rtime.Duration
		for {
			used, ev := j.Step(rtime.Duration(budRaw%30)+1, acc)
			consumed += used
			if consumed+j.Remaining(acc) != demand {
				return false
			}
			if ev == StepCompleted {
				return consumed == demand
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSuffixMatchesSegmentWalk holds the suffix table to a direct walk
// of the remaining segments, at every segment index and in-segment
// progress, over a task mixing compute, accesses and an explicit
// section. The task keeps one table for all its jobs, rebuilds it
// after an edit, and does not share it with a clone.
func TestSuffixMatchesSegmentWalk(t *testing.T) {
	tk := sampleTask(0, 1, 0, nil)
	tk.Segments = []Segment{
		{Kind: Compute, D: 7}, {Kind: Access, Object: 0}, {Kind: Lock, Object: 1},
		{Kind: Compute, D: 5}, {Kind: Access, Object: 2}, {Kind: Unlock, Object: 1},
		{Kind: Compute, D: 11},
	}
	walk := func(j *Job, acc rtime.Duration) rtime.Duration {
		var rem rtime.Duration
		for _, s := range j.Task.Segments[j.SegIdx:] {
			switch s.Kind {
			case Compute:
				rem += s.D
			case Access:
				rem += acc
			}
		}
		return max(rem-j.SegDone, 0)
	}
	a, b := NewJob(tk, 0, 0), NewJob(tk, 1, 50)
	s := tk.Suffix()
	if tk.suffix.Load() != s || a.Task != tk || b.Task != tk {
		t.Fatal("jobs of one task do not share its table")
	}
	if got, want := s.Compute(), tk.ComputeTime(); got != want {
		t.Fatalf("Compute = %v, ComputeTime = %v", got, want)
	}
	check := func() {
		t.Helper()
		for _, acc := range []rtime.Duration{1, 9} {
			for k := 0; k <= len(tk.Segments); k++ {
				for _, done := range []rtime.Duration{0, 3, 40} {
					a.SegIdx, a.SegDone = k, done
					if k == len(tk.Segments) {
						a.SegDone = 0
					}
					if got, want := a.Remaining(acc), walk(a, acc); got != want {
						t.Fatalf("acc %v seg %d done %v: Remaining = %v, walk = %v", acc, k, done, got, want)
					}
				}
			}
		}
	}
	check()
	tk.Segments[1].Object = 9
	if tk.Suffix() != s {
		t.Fatal("an object id edit rebuilt the table")
	}
	for _, edit := range []func(){
		func() { tk.Segments[3].D = 6 },
		func() { tk.Segments[4].Kind = Compute; tk.Segments[4].D = 2 },
		func() { tk.Segments = tk.Segments[:5] },
		func() { tk.TUF = tuf.MustStep(10, 1500) },
	} {
		edit()
		if next := tk.Suffix(); next == s {
			t.Fatal("an edit kept the stale table")
		} else {
			s = next
		}
		check()
	}
	if c := tk.Clone(); c.Suffix() == s || c.Suffix().task != c {
		t.Fatal("a clone shares its template's table")
	}
	a.State = Completed
	if got := a.Remaining(9); got != 0 {
		t.Fatalf("Remaining of a completed job = %v", got)
	}
}

// TestSuffixShared: runs that share a task read-only may create jobs of
// it and read their remaining demand concurrently (run with -race).
func TestSuffixShared(t *testing.T) {
	tk := sampleTask(0, 40, 3, []int{0, 1, 2})
	want := tk.ComputeTime() + 3*5
	done := make(chan rtime.Duration)
	for g := 0; g < 2; g++ {
		go func() {
			var got rtime.Duration
			for n := 0; n < 100; n++ {
				got = NewJob(tk, n, 0).Remaining(5)
			}
			done <- got
		}()
	}
	for g := 0; g < 2; g++ {
		if got := <-done; got != want {
			t.Fatalf("Remaining = %v, want %v", got, want)
		}
	}
}

// TestJobSize: the engine and the scheduler passes walk jobs by pointer
// on every event, so the struct stays within two 64-byte cache lines.
func TestJobSize(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n > 128 {
		t.Fatalf("sizeof(Job) = %d bytes, want at most 128", n)
	}
}
