package metrics

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func mkResult() sim.Result {
	tk := &task.Task{
		ID: 0, TUF: tuf.MustStep(10, 1000),
		Arrival:  uam.Spec{L: 0, A: 1, W: 2000},
		Segments: task.InterleavedSegments(100, 0, nil),
	}
	// j1 completes in time; j2 aborted; j3 released too late to count.
	j1 := task.NewJob(tk, 0, 0)
	j1.State = task.Completed
	j1.Completion = 400
	j2 := task.NewJob(tk, 1, 100)
	j2.State = task.Aborted
	j2.AbortedAt = 1100
	j3 := task.NewJob(tk, 2, 9800) // critical time 10800 > horizon
	r := sim.Result{Jobs: []*task.Job{j1, j2, j3}, Horizon: 10_000}
	for _, j := range r.Jobs {
		r.Sums.Fold(j, r.Horizon)
	}
	return r
}

func TestAnalyze(t *testing.T) {
	st := Analyze(mkResult())
	if st.Released != 2 {
		t.Fatalf("Released = %d, want 2 (late job excluded)", st.Released)
	}
	if st.Completed != 1 || st.Aborted != 1 || st.Met != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AUR != 0.5 { // 10 accrued / 20 possible
		t.Fatalf("AUR = %v, want 0.5", st.AUR)
	}
	if st.CMR != 0.5 {
		t.Fatalf("CMR = %v, want 0.5", st.CMR)
	}
	if st.MeanSojourn != 400 || st.MaxSojourn != 400 {
		t.Fatalf("sojourns = %v/%v", st.MeanSojourn, st.MaxSojourn)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(sim.Result{Horizon: 100})
	if st.AUR != 0 || st.CMR != 0 || st.Released != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestApproximateLoad(t *testing.T) {
	tasks := []*task.Task{
		{TUF: tuf.MustStep(1, 1000), Arrival: uam.Periodic(2000),
			Segments: task.InterleavedSegments(100, 2, []int{0})},
		{TUF: tuf.MustStep(1, 500), Arrival: uam.Periodic(2000),
			Segments: task.InterleavedSegments(50, 0, nil)},
	}
	// AL = 100/1000 + 50/500 = 0.2 — object accesses excluded.
	if got := ApproximateLoad(tasks); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("AL = %v, want 0.2", got)
	}
}

func TestUAMLoad(t *testing.T) {
	tasks := []*task.Task{
		{TUF: tuf.MustStep(1, 1000), Arrival: uam.Spec{L: 1, A: 1, W: 1000},
			Segments: task.InterleavedSegments(100, 0, nil)},
	}
	// rate = (1+1)/(2·1000) = 0.001; load = 0.1.
	if got := UAMLoad(tasks); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("UAMLoad = %v, want 0.1", got)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summarize = %+v", s)
	}
	if s := Summarize([]float64{7}); s.N != 1 || s.Mean != 7 || s.CI95 != 0 {
		t.Fatalf("single summarize = %+v", s)
	}
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// sd = sqrt(2.5), ci = 1.96·sd/√5
	want := 1.96 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("ci = %v, want %v", s.CI95, want)
	}
	if s.String() == "" {
		t.Fatal("empty render")
	}
}

func buildAt(al float64) (sim.Config, error) {
	// n identical tasks, each u=100, C=1000 → per-task AL contribution
	// 0.1. Periodic W=C so the CPU sees sustained load ≈ al... we scale u
	// instead for a smooth sweep.
	u := rtime.Duration(al * 1000)
	if u < 1 {
		u = 1
	}
	tk := &task.Task{
		ID: 0, TUF: tuf.MustStep(1, 1000),
		Arrival:  uam.Spec{L: 1, A: 1, W: 1000},
		Segments: task.InterleavedSegments(u, 0, nil),
	}
	return sim.Config{
		Tasks:     []*task.Task{tk},
		Scheduler: sched.EDF{},
		Mode:      sim.LockFree,
		R:         10, S: 3,
		Horizon:     50_000,
		ArrivalKind: uam.KindPeriodic,
		Seed:        1,
	}, nil
}

func TestFindCML(t *testing.T) {
	loads := []float64{0.2, 0.5, 0.9, 1.2, 1.5}
	cml, cmrs, err := FindCML(CMLConfig{Build: buildAt, Loads: loads})
	if err != nil {
		t.Fatal(err)
	}
	// A single periodic task with u ≤ C completes everything; u > C
	// (load > 1) must miss. Ideal scheduler ⇒ CML = 0.9 grid point.
	if cml != 0.9 {
		t.Fatalf("CML = %v, want 0.9 (cmrs=%v)", cml, cmrs)
	}
	if cmrs[0] != 1 || cmrs[4] == 1 {
		t.Fatalf("cmrs = %v", cmrs)
	}
}

func TestFindCMLValidation(t *testing.T) {
	if _, _, err := FindCML(CMLConfig{}); !errors.Is(err, ErrInput) {
		t.Fatal("empty config accepted")
	}
	if _, _, err := FindCML(CMLConfig{Build: buildAt, Loads: []float64{0.5, 0.2}}); !errors.Is(err, ErrInput) {
		t.Fatal("descending loads accepted")
	}
}

// TestFindCMLAllPass: when even the heaviest load misses nothing the
// CML is the last grid point, not stuck at an earlier one.
func TestFindCMLAllPass(t *testing.T) {
	loads := []float64{0.2, 0.5, 0.9}
	cml, cmrs, err := FindCML(CMLConfig{Build: buildAt, Loads: loads})
	if err != nil {
		t.Fatal(err)
	}
	if cml != 0.9 {
		t.Fatalf("CML = %v, want last load 0.9 (cmrs=%v)", cml, cmrs)
	}
	for i, c := range cmrs {
		if c != 1 {
			t.Fatalf("load %v missed: cmrs=%v", loads[i], cmrs)
		}
	}
}

// buildTiny builds a run whose horizon ends before any job's critical
// time, so Analyze releases nothing.
func buildTiny(al float64) (sim.Config, error) {
	sc, err := buildAt(al)
	sc.Horizon = 10 // first critical time is ≥ 1000
	return sc, err
}

// TestFindCMLZeroReleased exercises the vacuous-load sentinel: a load
// that releases no jobs is skipped rather than counted as a pass, even
// when the tolerance would accept CMR = 0.
func TestFindCMLZeroReleased(t *testing.T) {
	cml, cmrs, err := FindCML(CMLConfig{
		Build: buildTiny, Loads: []float64{0.5, 1.0},
		MissTolerance: 1, // accepts any CMR — only the sentinel keeps cml at 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if cml != 0 {
		t.Fatalf("CML = %v, want 0 for vacuous loads", cml)
	}
	for _, c := range cmrs {
		if c != 0 {
			t.Fatalf("vacuous cmrs = %v", cmrs)
		}
	}
}

// TestSummarizeIdentical: zero variance yields a zero confidence
// interval, not NaN.
func TestSummarizeIdentical(t *testing.T) {
	s := Summarize([]float64{4, 4, 4, 4})
	if s.N != 4 || s.Mean != 4 || s.CI95 != 0 {
		t.Fatalf("identical summarize = %+v", s)
	}
	if math.IsNaN(s.CI95) || math.IsNaN(s.Mean) {
		t.Fatalf("NaN crept in: %+v", s)
	}
}

func TestPerTask(t *testing.T) {
	mk := func(id int) *task.Task {
		return &task.Task{
			ID: id, Name: "T", TUF: tuf.MustStep(10, 1000),
			Arrival:  uam.Spec{L: 0, A: 1, W: 2000},
			Segments: task.InterleavedSegments(100, 0, nil),
		}
	}
	t0, t1 := mk(0), mk(1)
	j1 := task.NewJob(t0, 0, 0)
	j1.State = task.Completed
	j1.Completion = 400
	j1.Retries = 2
	j2 := task.NewJob(t0, 1, 100)
	j2.State = task.Aborted
	j3 := task.NewJob(t1, 0, 0)
	j3.State = task.Completed
	j3.Completion = 999
	r := sim.Result{Jobs: []*task.Job{j1, j2, j3}, Horizon: 10_000}
	per := PerTask(r)
	if len(per) != 2 {
		t.Fatalf("tasks = %d", len(per))
	}
	if per[0].TaskID != 0 || per[0].Released != 2 || per[0].Completed != 1 || per[0].Aborted != 1 {
		t.Fatalf("task0 = %+v", per[0])
	}
	if per[0].AUR != 0.5 || per[0].CMR != 0.5 || per[0].Retries != 2 {
		t.Fatalf("task0 rates = %+v", per[0])
	}
	if per[1].AUR != 1.0 || per[1].CMR != 1.0 {
		t.Fatalf("task1 = %+v", per[1])
	}
}

// TestPerTaskAbortedOnly: a task whose every job aborts gets zero
// rates (not NaN) and correct counts.
func TestPerTaskAbortedOnly(t *testing.T) {
	tk := &task.Task{
		ID: 3, Name: "doomed", TUF: tuf.MustStep(10, 1000),
		Arrival:  uam.Spec{L: 0, A: 1, W: 2000},
		Segments: task.InterleavedSegments(100, 0, nil),
	}
	j1 := task.NewJob(tk, 0, 0)
	j1.State = task.Aborted
	j1.Retries = 5
	j2 := task.NewJob(tk, 1, 100)
	j2.State = task.Aborting
	r := sim.Result{Jobs: []*task.Job{j1, j2}, Horizon: 10_000}
	per := PerTask(r)
	if len(per) != 1 {
		t.Fatalf("tasks = %d", len(per))
	}
	st := per[0]
	if st.Released != 2 || st.Completed != 0 || st.Aborted != 2 || st.Met != 0 {
		t.Fatalf("counts = %+v", st)
	}
	if st.AUR != 0 || st.CMR != 0 {
		t.Fatalf("rates = %+v", st)
	}
	if math.IsNaN(st.AUR) || math.IsNaN(st.CMR) {
		t.Fatalf("NaN rates: %+v", st)
	}
	if st.Retries != 5 {
		t.Fatalf("retries = %d", st.Retries)
	}
}
