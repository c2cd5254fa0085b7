package rua

import (
	"slices"
	"testing"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// mkJob returns task id's first job, numbered id as an engine would
// number it (the resource map indexes lock state by EngineSlot).
func mkJob(id int, u float64, c rtime.Duration, comp rtime.Duration, ar rtime.Time) *task.Job {
	t := &task.Task{
		ID:       id,
		TUF:      tuf.MustStep(u, c),
		Arrival:  uam.Spec{L: 0, A: 2, W: 10 * c},
		Segments: task.InterleavedSegments(comp, 0, nil),
	}
	j := task.NewJob(t, 0, ar)
	j.EngineSlot = int32(id)
	return j
}

func mkSharingJob(id int, u float64, c rtime.Duration, comp rtime.Duration, obj int) *task.Job {
	t := &task.Task{
		ID:       id,
		TUF:      tuf.MustStep(u, c),
		Arrival:  uam.Spec{L: 0, A: 2, W: 10 * c},
		Segments: task.InterleavedSegments(comp, 1, []int{obj}),
	}
	j := task.NewJob(t, 0, 0)
	j.EngineSlot = int32(id)
	return j
}

func world(now rtime.Time, res *resource.Map, lockBased bool, jobs ...*task.Job) sched.World {
	if res == nil {
		res = resource.NewMap()
	}
	return sched.World{Now: now, Jobs: jobs, Res: res, Acc: 10, LockBased: lockBased}
}

func TestNames(t *testing.T) {
	if NewLockBased().Name() != "rua-lockbased" || NewLockFree().Name() != "rua-lockfree" {
		t.Fatal("names wrong")
	}
}

func TestEmptySelect(t *testing.T) {
	d := NewLockFree().Select(world(0, nil, false))
	if d.Run != nil || len(d.Abort) != 0 {
		t.Fatalf("empty select = %+v", d)
	}
}

func TestSingleJob(t *testing.T) {
	j := mkJob(0, 5, 1000, 100, 0)
	d := NewLockFree().Select(world(0, nil, false, j))
	if d.Run != j {
		t.Fatal("single job not selected")
	}
	if d.Ops <= 0 {
		t.Fatal("no ops charged")
	}
}

func TestECFOrderUnderload(t *testing.T) {
	// All feasible → ECF head (earliest critical time runs first),
	// regardless of PUD order.
	early := mkJob(0, 1, 300, 50, 0)   // C=300, PUD=1/50
	late := mkJob(1, 100, 1000, 50, 0) // C=1000, PUD=100/50 (examined first)
	d := NewLockFree().Select(world(0, nil, false, early, late))
	if d.Run != early {
		t.Fatalf("head = %v, want the earliest-critical-time job", d.Run.Name())
	}
}

func TestOverloadRejectsLowPUD(t *testing.T) {
	// Both need 80; only one fits. High-utility job wins even though the
	// other has an earlier critical time.
	low := mkJob(0, 1, 100, 80, 0)
	high := mkJob(1, 100, 120, 80, 0)
	d := NewLockFree().Select(world(0, nil, false, low, high))
	if d.Run != high {
		t.Fatalf("head = %s, want high-PUD job", d.Run.Name())
	}
}

func TestNonStepTUFPUD(t *testing.T) {
	// Linear TUF: utility at estimated completion shrinks as the job
	// waits; a fresher parabolic job with the same parameters must win
	// when the linear one's estimated completion utility is lower.
	lin := &task.Task{
		ID: 0, TUF: tuf.MustLinear(10, 1000),
		Arrival:  uam.Spec{L: 0, A: 1, W: 10000},
		Segments: task.InterleavedSegments(100, 0, nil),
	}
	par := &task.Task{
		ID: 1, TUF: tuf.MustParabolic(10, 1000),
		Arrival:  uam.Spec{L: 0, A: 1, W: 10000},
		Segments: task.InterleavedSegments(100, 0, nil),
	}
	jl := task.NewJob(lin, 0, 0)
	jp := task.NewJob(par, 0, 0)
	jl.EngineSlot, jp.EngineSlot = 0, 1
	// Estimated completions: whichever runs "first" in PUD terms —
	// parabolic keeps more utility at t=100 (10·(1−0.01)=9.9) than linear
	// (10·0.9=9.0), so parabolic has higher PUD. Both feasible → ECF tie
	// on critical time (both 1000) breaks by insertion; just assert a
	// deterministic, non-nil decision and utility sanity via op counts.
	d := NewLockFree().Select(world(0, nil, false, jl, jp))
	if d.Run == nil {
		t.Fatal("no job selected")
	}
	d2 := NewLockFree().Select(world(0, nil, false, jl, jp))
	if d.Run != d2.Run {
		t.Fatal("selection not deterministic")
	}
}

func TestLockBasedChainHeadRunsFirst(t *testing.T) {
	// B waits on obj held by H. Even if B has enormous PUD, H must run
	// first (dependency order).
	res := resource.NewMap()
	h := mkSharingJob(0, 1, 2000, 100, 0)
	b := mkSharingJob(1, 1000, 500, 100, 0)
	// Put H inside its access segment holding obj 0.
	h.Step(1<<40, 10) // run to access start
	if _, _, err := res.TryAcquire(h, 0); err != nil {
		t.Fatal(err)
	}
	h.Step(3, 10) // 3 ticks into the access
	// B is at its access boundary and blocked.
	b.Step(1<<40, 10)
	if granted, _, _ := res.TryAcquire(b, 0); granted {
		t.Fatal("b should be blocked")
	}
	b.State = task.Blocked

	d := NewLockBased().Select(world(200, res, true, h, b))
	if d.Run != h {
		t.Fatalf("head = %s, want the lock holder", d.Run.Name())
	}
}

func TestLockBasedCriticalTimeInheritance(t *testing.T) {
	// §3.4.1 Case 2: holder H has a LATER critical time than blocked B.
	// H must still be placed before B, with its effective critical time
	// tightened — the tentative schedule is feasible only because of the
	// inheritance, and H runs first.
	res := resource.NewMap()
	h := mkSharingJob(0, 1, 5000, 60, 0) // C_H = 5000 (late)
	b := mkSharingJob(1, 50, 400, 60, 0) // C_B = 400 (early), high utility
	h.Step(1<<40, 10)
	res.TryAcquire(h, 0)
	h.Step(2, 10)
	b.Step(1<<40, 10)
	res.TryAcquire(b, 0)
	b.State = task.Blocked

	d := NewLockBased().Select(world(100, res, true, h, b))
	if d.Run != h {
		t.Fatalf("head = %s, want holder despite later critical time", d.Run.Name())
	}
}

func TestDeadlockDetectionAndVictim(t *testing.T) {
	// Cycle (only possible with nesting): J1 holds o1 waits o2; J2 holds
	// o2 waits o1. The lower-PUD job is aborted.
	res := resource.NewMap()
	j1 := mkJob(0, 100, 1000, 50, 0)
	j2 := mkJob(1, 1, 1000, 50, 0)
	res.TryAcquire(j1, 1)
	res.TryAcquire(j2, 2)
	res.TryAcquire(j1, 2) // waits
	res.TryAcquire(j2, 1) // waits → cycle
	d := NewLockBased().Select(world(0, res, true, j1, j2))
	if len(d.Abort) != 1 {
		t.Fatalf("aborts = %d, want 1", len(d.Abort))
	}
	if d.Abort[0] != j2 {
		t.Fatalf("victim = %s, want the low-PUD job", d.Abort[0].Name())
	}
}

func TestLockFreeNeverDetectsDeadlock(t *testing.T) {
	res := resource.NewMap()
	j1 := mkJob(0, 1, 1000, 50, 0)
	j2 := mkJob(1, 1, 1000, 50, 0)
	// Even with a poisoned resource map, lock-free RUA ignores chains.
	res.TryAcquire(j1, 1)
	res.TryAcquire(j2, 2)
	res.TryAcquire(j1, 2)
	res.TryAcquire(j2, 1)
	d := NewLockFree().Select(world(0, res, false, j1, j2))
	if len(d.Abort) != 0 {
		t.Fatal("lock-free RUA attempted deadlock resolution")
	}
	if d.Run == nil {
		t.Fatal("no decision")
	}
}

func TestInfeasibleJobExcludedButOthersKept(t *testing.T) {
	// j1 can never make its critical time; j2 fits after j3. The schedule
	// keeps the feasible pair.
	j1 := mkJob(0, 1, 50, 200, 0) // needs 200, C=50: hopeless
	j2 := mkJob(1, 5, 500, 100, 0)
	j3 := mkJob(2, 5, 300, 100, 0)
	d := NewLockFree().Select(world(0, nil, false, j1, j2, j3))
	if d.Run != j3 {
		t.Fatalf("head = %s, want j3 (earliest feasible)", d.Run.Name())
	}
}

func TestZeroRemainingScheduledFirst(t *testing.T) {
	// A job with no remaining demand (about to be marked complete) gets
	// infinite PUD and must not crash the scheduler.
	j1 := mkJob(0, 1, 1000, 50, 0)
	j1.Step(1<<40, 10) // consume everything
	j2 := mkJob(1, 1, 1000, 50, 0)
	d := NewLockFree().Select(world(0, nil, false, j1, j2))
	if d.Run != j1 {
		t.Fatalf("zero-remaining job not scheduled first: %s", d.Run.Name())
	}
}

func TestOpCountGrowth(t *testing.T) {
	// Lock-based ops must exceed lock-free ops on identical worlds with
	// dependencies present, and both must grow superlinearly with n.
	mkWorld := func(n int) (sched.World, sched.World) {
		res := resource.NewMap()
		jobs := make([]*task.Job, n)
		for i := range jobs {
			jobs[i] = mkSharingJob(i, float64(i+1), 5000, 100, i%3)
		}
		// Create a few real dependencies.
		jobs[0].Step(1<<40, 10)
		res.TryAcquire(jobs[0], 0)
		jobs[0].Step(1, 10)
		for i := 3; i < n; i += 3 {
			jobs[i].Step(1<<40, 10)
			res.TryAcquire(jobs[i], 0)
		}
		wLB := sched.World{Now: 0, Jobs: jobs, Res: res, Acc: 10, LockBased: true}
		wLF := sched.World{Now: 0, Jobs: jobs, Res: res, Acc: 10, LockBased: false}
		return wLB, wLF
	}
	var prevLF int64
	for _, n := range []int{8, 16, 32, 64} {
		wLB, wLF := mkWorld(n)
		lb := NewLockBased().Select(wLB)
		lf := NewLockFree().Select(wLF)
		if lb.Ops <= lf.Ops {
			t.Fatalf("n=%d: lock-based ops %d not above lock-free %d", n, lb.Ops, lf.Ops)
		}
		if lf.Ops <= prevLF*2 && prevLF > 0 {
			t.Fatalf("n=%d: lock-free ops %d did not grow superlinearly from %d", n, lf.Ops, prevLF)
		}
		prevLF = lf.Ops
	}
}

func TestDoneJobsIgnored(t *testing.T) {
	j1 := mkJob(0, 1, 1000, 50, 0)
	j1.State = task.Completed
	j2 := mkJob(1, 1, 1000, 50, 0)
	j2.State = task.Aborting
	j3 := mkJob(2, 1, 1000, 50, 0)
	d := NewLockFree().Select(world(0, nil, false, j1, j2, j3))
	if d.Run != j3 {
		t.Fatal("done/aborting jobs not filtered")
	}
}

func TestFig5RemovalAndReinsertion(t *testing.T) {
	// Paper Fig 5: chains(T1)=⟨T1⟩, chains(T2)=⟨T1,T2⟩, chains(T3)=⟨T1,T3⟩,
	// PUD order T2, T1, T3. T2's insertion brings T1 in; when T3 is later
	// examined, T1 (already inserted) must also end up before T3, moving
	// it if the critical-time order disagrees. The final schedule is
	// ⟨T1, T3, T2⟩ when C1 > C3 forces the move — T1's effective critical
	// time is tightened to C3.
	res := resource.NewMap()
	// T1 holds the object both T2 and T3 want.
	t1 := mkSharingJob(1, 30, 3000, 100, 0)  // moderate utility, LATE C
	t2 := mkSharingJob(2, 100, 3500, 100, 0) // highest utility → examined first
	t3 := mkSharingJob(3, 60, 1500, 100, 0)  // C3 < C1: forces reinsertion
	t1.Step(1<<40, 10)
	if granted, _, _ := res.TryAcquire(t1, 0); !granted {
		t.Fatal("setup: t1 acquire failed")
	}
	t1.Step(1, 10)
	for _, b := range []*task.Job{t2, t3} {
		b.Step(1<<40, 10)
		if granted, _, _ := res.TryAcquire(b, 0); granted {
			t.Fatal("setup: waiter acquired")
		}
		b.State = task.Blocked
	}
	d := NewLockBased().Select(world(0, res, true, t1, t2, t3))
	// The holder must run first regardless of the shuffling.
	if d.Run != t1 {
		t.Fatalf("head = %s, want T1 (the holder)", d.Run.Name())
	}
	// Determinism of the whole construction.
	d2 := NewLockBased().Select(world(0, res, true, t1, t2, t3))
	if d2.Run != d.Run || d2.Ops != d.Ops {
		t.Fatal("schedule construction not deterministic")
	}
}

func TestCase1ConsistentOrderNoInheritance(t *testing.T) {
	// §3.4.1 Case 1: holder's critical time already earlier than the
	// blocked job's — no move needed, holder first.
	res := resource.NewMap()
	h := mkSharingJob(0, 10, 500, 60, 0)  // C earlier
	b := mkSharingJob(1, 10, 2000, 60, 0) // C later
	h.Step(1<<40, 10)
	res.TryAcquire(h, 0)
	h.Step(2, 10)
	b.Step(1<<40, 10)
	res.TryAcquire(b, 0)
	b.State = task.Blocked
	d := NewLockBased().Select(world(0, res, true, h, b))
	if d.Run != h {
		t.Fatalf("head = %s, want holder", d.Run.Name())
	}
}

// TestSelectSteadyStateNoAlloc pins the zero-alloc contract on the full
// scheduling pass: after warm-up, Select allocates nothing, in both
// sharing modes.
func TestSelectSteadyStateNoAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		rua  *RUA
	}{
		{"lockfree", NewLockFree()},
		{"lockbased", NewLockBased()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]*task.Job, 32)
			for i := range jobs {
				jobs[i] = mkJob(i, float64(1+i%5), rtime.Duration(500+10*i), rtime.Duration(20+i%7), 0)
			}
			w := world(0, nil, !tc.rua.lockFree, jobs...)
			for i := 0; i < 3; i++ {
				tc.rua.Select(w)
			}
			allocs := testing.AllocsPerRun(100, func() {
				tc.rua.Select(w)
			})
			if allocs != 0 {
				t.Fatalf("Select steady-state allocs/run = %v, want 0", allocs)
			}
		})
	}
}

// TestSelectTopKMatchesSchedulePrefix checks the TopK path against
// Select's head and the final schedule's order, on a lock-free world and
// on a lock-based one whose chain forces a Case-2 reorder (§3.4.1).
func TestSelectTopKMatchesSchedulePrefix(t *testing.T) {
	jobs := make([]*task.Job, 12)
	for i := range jobs {
		jobs[i] = mkJob(i, float64(1+i), rtime.Duration(300+40*i), 25, 0)
	}
	// Holder h's critical time is later than its waiter b's, so b's
	// chain ⟨h, b⟩ puts h directly before b with b's critical time.
	res := resource.NewMap()
	h := mkSharingJob(0, 1, 5000, 60, 0)
	b := mkSharingJob(1, 50, 400, 60, 0)
	blockOn(t, res, h, 0)
	blockOn(t, res, b, 0)
	f1, f2 := mkJob(2, 5, 800, 50, 0), mkJob(3, 3, 1500, 50, 0)

	for _, tc := range []struct {
		name string
		r    *RUA
		w    sched.World
		k    int
	}{
		{"lockfree", NewLockFree(), world(0, nil, false, jobs...), 4},
		{"lockbased", NewLockBased(), world(100, res, true, f2, b, f1, h), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.r.Select(tc.w)
			ranked, ops := tc.r.SelectTopK(tc.w, tc.k)
			if len(ranked) != tc.k {
				t.Fatalf("TopK len = %d", len(ranked))
			}
			if ranked[0] != d.Run {
				t.Fatalf("TopK head %s != Select run %s", ranked[0].Name(), d.Run.Name())
			}
			if d.Ops != ops {
				t.Fatalf("ops %d != %d across identical passes", d.Ops, ops)
			}
			for i, e := range tc.r.sched.entries[:tc.k] {
				if ranked[i] != e.job {
					t.Fatalf("TopK[%d] = %s, schedule entry %d is %s", i, ranked[i].Name(), i, e.job.Name())
				}
			}
			for i := 1; i < len(ranked); i++ {
				if ranked[i] == ranked[i-1] {
					t.Fatal("duplicate in TopK")
				}
			}
			if !tc.w.LockBased {
				return
			}
			hi := slices.Index(ranked, h)
			if hi < 0 || hi+1 >= len(ranked) || ranked[hi+1] != b {
				t.Fatal("holder not ranked directly before its waiter")
			}
			if c := tc.r.sched.entries[hi].effC; c != b.AbsoluteCriticalTime() {
				t.Fatalf("holder effC = %v, want the waiter's %v (Case 2)", c, b.AbsoluteCriticalTime())
			}
		})
	}
}
