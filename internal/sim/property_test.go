package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// randomWorkload builds a small task set from fuzz bytes. Every produced
// set is valid by construction; diversity comes from the bytes.
func randomWorkload(nRaw, aRaw uint8, execRaw, cRaw uint16, mRaw, objRaw, classRaw uint8) []*task.Task {
	n := int(nRaw%5) + 2
	tasks := make([]*task.Task, n)
	for i := range tasks {
		u := rtime.Duration(execRaw%800) + 50 + rtime.Duration(i*37)
		c := rtime.Duration(cRaw%4000) + 4*u + rtime.Duration(i)*100
		a := int(aRaw%3) + 1
		m := int(mRaw % 4)
		objs := []int{int(objRaw % 3), (int(objRaw) + 1) % 3}
		util := float64(10 * (i + 1))
		var f tuf.TUF
		switch (int(classRaw) + i) % 3 {
		case 0:
			f = tuf.MustStep(util, c)
		case 1:
			f = tuf.MustLinear(util, c)
		default:
			f = tuf.MustParabolic(util, c)
		}
		tasks[i] = &task.Task{
			ID:        i,
			TUF:       f,
			Arrival:   uam.Spec{L: 0, A: a, W: 2 * c},
			Segments:  task.InterleavedSegments(u, m, objs),
			AbortCost: rtime.Duration(i % 3 * 5),
		}
	}
	return tasks
}

// TestQuickEngineInvariants drives random workloads through both
// synchronization modes and both RUA variants plus EDF/LLF, checking the
// engine's global invariants:
//
//  1. the run finishes without internal errors,
//  2. conservation: every job is completed, aborted, or still live —
//     and the counters agree,
//  3. completed jobs finish after their arrival and accrue ≤ MaxUtility,
//  4. no job retries in lock-based mode, no job blocks in lock-free mode,
//  5. each job's lock-free retries respect the Theorem 2 bound,
//  6. virtual-time accounting: exec + overhead + handlers ≤ horizon.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(nRaw, aRaw uint8, execRaw, cRaw uint16, mRaw, objRaw, classRaw uint8,
		seed int64, modeRaw, schedRaw, kindRaw uint8) bool {
		tasks := randomWorkload(nRaw, aRaw, execRaw, cRaw, mRaw, objRaw, classRaw)
		mode := Mode(modeRaw % 2)
		// Pair schedulers coherently with the synchronization mode:
		// lock-free RUA assumes dependencies do not exist (§5), so it is
		// only valid with lock-free objects; lock-based RUA, EDF, and LLF
		// handle both.
		var s sched.Scheduler
		switch schedRaw % 4 {
		case 0:
			if mode == LockFree {
				s = rua.NewLockFree()
			} else {
				s = rua.NewLockBased()
			}
		case 1:
			s = rua.NewLockBased()
		case 2:
			s = sched.EDF{}
		default:
			s = sched.LLF{}
		}
		var maxC rtime.Duration
		for _, tk := range tasks {
			if c := tk.CriticalTime(); c > maxC {
				maxC = c
			}
		}
		horizon := rtime.Time(20 * maxC)
		res, err := Run(Config{
			Tasks: tasks, Scheduler: s, Mode: mode,
			R: 40, S: 7, OpCost: 0.01,
			Horizon:     horizon,
			ArrivalKind: uam.Kind(kindRaw % 3), Seed: seed,
			ConservativeRetry: true, KeepJobs: true,
		})
		if err != nil {
			t.Logf("engine error (mode=%v sched=%s): %v", mode, s.Name(), err)
			return false
		}
		var done, live int64
		for _, j := range res.Jobs {
			switch {
			case j.Done():
				done++
			default:
				live++
			}
			if j.State == task.Completed {
				if j.Completion < j.Arrival {
					t.Logf("%s completed before arrival", j.Name())
					return false
				}
				if j.AccruedUtility() > j.Task.TUF.MaxUtility()+1e-9 {
					t.Logf("%s over-accrued", j.Name())
					return false
				}
			}
			if mode == LockBased && j.Retries != 0 {
				t.Logf("%s retried under locks", j.Name())
				return false
			}
			if mode == LockFree && j.Blockings != 0 {
				t.Logf("%s blocked under lock-free", j.Name())
				return false
			}
		}
		if done != res.Completions+res.Aborts {
			t.Logf("conservation: done=%d completions+aborts=%d", done, res.Completions+res.Aborts)
			return false
		}
		if int64(len(res.Jobs)) != res.Arrivals {
			t.Logf("job count %d != arrivals %d", len(res.Jobs), res.Arrivals)
			return false
		}
		if mode == LockFree {
			for i := range tasks {
				bound, err := analysis.RetryBound(i, tasks)
				if err != nil {
					return false
				}
				for _, j := range res.Jobs {
					if j.Task.ID == tasks[i].ID && j.Retries > bound {
						t.Logf("Theorem 2 violated: %s retries=%d bound=%d", j.Name(), j.Retries, bound)
						return false
					}
				}
			}
		}
		busy := res.ExecTime + res.Overhead + res.HandlerTime
		if busy > rtime.Duration(horizon)+rtime.Duration(maxC) {
			t.Logf("CPU accounting overflow: busy=%v horizon=%v", busy, horizon)
			return false
		}
		// Lemma 1: a job cannot be preempted more often than the scheduler
		// was invoked (preemptions only happen at scheduling events).
		var totalPreempts int64
		for _, j := range res.Jobs {
			totalPreempts += j.Preempts
		}
		if totalPreempts > res.SchedInvocations {
			t.Logf("Lemma 1 violated: %d preemptions > %d scheduler invocations", totalPreempts, res.SchedInvocations)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 25
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickModesAgreeWithoutSharing checks that with zero object
// accesses, lock-based and lock-free RUA produce identical schedules —
// the two algorithms differ only in dependency handling, and with m=0
// there are no dependencies.
func TestQuickModesAgreeWithoutSharing(t *testing.T) {
	f := func(nRaw, aRaw uint8, execRaw, cRaw uint16, classRaw uint8, seed int64) bool {
		tasks1 := randomWorkload(nRaw, aRaw, execRaw, cRaw, 0, 0, classRaw)
		tasks2 := randomWorkload(nRaw, aRaw, execRaw, cRaw, 0, 0, classRaw)
		var maxC rtime.Duration
		for _, tk := range tasks1 {
			if c := tk.CriticalTime(); c > maxC {
				maxC = c
			}
		}
		horizon := rtime.Time(15 * maxC)
		run := func(tasks []*task.Task, s sched.Scheduler, m Mode) Result {
			res, err := Run(Config{
				Tasks: tasks, Scheduler: s, Mode: m,
				R: 40, S: 40, OpCost: 0, Horizon: horizon,
				ArrivalKind: uam.KindJittered, Seed: seed, ConservativeRetry: true,
				KeepJobs: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		rLB := run(tasks1, rua.NewLockBased(), LockBased)
		rLF := run(tasks2, rua.NewLockFree(), LockFree)
		if rLB.Completions != rLF.Completions || rLB.Aborts != rLF.Aborts {
			t.Logf("divergence: lb=(%d,%d) lf=(%d,%d)", rLB.Completions, rLB.Aborts, rLF.Completions, rLF.Aborts)
			return false
		}
		for i := range rLB.Jobs {
			if rLB.Jobs[i].Completion != rLF.Jobs[i].Completion {
				t.Logf("job %d completion differs: %v vs %v", i, rLB.Jobs[i].Completion, rLF.Jobs[i].Completion)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
