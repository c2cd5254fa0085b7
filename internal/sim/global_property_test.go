package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// TestQuickGlobalInvariants drives random workloads through the global
// multiprocessor engine with 1–4 CPUs and checks:
//
//  1. no internal errors,
//  2. conservation (done = completions + aborts; job count = arrivals),
//  3. completed jobs finish after arrival, never over-accrue,
//  4. lock-based runs never retry; lock-free runs never block,
//  5. total exec time never exceeds CPUs × horizon (no CPU over-commit),
//  6. with one CPU and no sharing, lock-free retries are zero under
//     commit-time validation (no parallelism → no conflicting commits
//     during an in-flight access unless preempted mid-access with a
//     conflicting commit, impossible with disjoint objects).
func TestQuickGlobalInvariants(t *testing.T) {
	f := func(nRaw, cpuRaw, aRaw uint8, execRaw, cRaw uint16, mRaw, objRaw, schedRaw uint8, seed int64) bool {
		n := int(nRaw%6) + 2
		cpus := int(cpuRaw%4) + 1
		mode := Mode(objRaw % 2)
		tasks := make([]*task.Task, n)
		for i := range tasks {
			u := rtime.Duration(execRaw%600) + 50 + rtime.Duration(i*31)
			c := rtime.Duration(cRaw%3000) + 4*u
			a := int(aRaw%3) + 1
			m := int(mRaw % 3)
			tasks[i] = &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(10*(i+1)), c),
				Arrival:  uam.Spec{L: 0, A: a, W: 2 * c},
				Segments: task.InterleavedSegments(u, m, []int{int(objRaw)%3 + i%2}),
			}
		}
		var s sched.TopK
		switch schedRaw % 3 {
		case 0:
			if mode == LockFree {
				s = rua.NewLockFree()
			} else {
				s = rua.NewLockBased()
			}
		case 1:
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
		horizon := rtime.Time(15 * maxC)
		res, err := RunGlobal(Config{
			Tasks: tasks, Scheduler: s, Mode: mode,
			R: 40, S: 7, OpCost: 0, Horizon: horizon,
			ArrivalKind: uam.Kind(seed % 3), Seed: seed, KeepJobs: true,
		}, cpus)
		if err != nil {
			t.Logf("engine error (cpus=%d mode=%v sched=%s): %v", cpus, mode, s.Name(), err)
			return false
		}
		var done int64
		for _, j := range res.Jobs {
			if j.Done() {
				done++
			}
			if j.State == task.Completed {
				if j.Completion < j.Arrival {
					return false
				}
				if j.AccruedUtility() > j.Task.TUF.MaxUtility()+1e-9 {
					return false
				}
			}
			if mode == LockBased && j.Retries != 0 {
				return false
			}
			if mode == LockFree && j.Blockings != 0 {
				return false
			}
		}
		if done != res.Completions+res.Aborts {
			return false
		}
		if int64(len(res.Jobs)) != res.Arrivals {
			return false
		}
		if res.ExecTime > rtime.Duration(int64(horizon)*int64(cpus))+maxC {
			t.Logf("exec %v over budget (%d CPUs × %v)", res.ExecTime, cpus, horizon)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGlobalMoreCPUsNeverHurt: for a fixed workload, raising the CPU
// count never lowers the completion count (global scheduling with more
// processors dominates: any feasible single-CPU dispatch is still
// available).
func TestQuickGlobalMoreCPUsNeverHurt(t *testing.T) {
	f := func(nRaw uint8, execRaw, cRaw uint16, seed int64) bool {
		mk := func() []*task.Task {
			n := int(nRaw%5) + 2
			tasks := make([]*task.Task, n)
			for i := range tasks {
				u := rtime.Duration(execRaw%500) + 100
				c := rtime.Duration(cRaw%2000) + 3*u
				tasks[i] = &task.Task{
					ID:       i,
					TUF:      tuf.MustStep(float64(i+1), c),
					Arrival:  uam.Spec{L: 0, A: 2, W: c},
					Segments: task.InterleavedSegments(u, 0, nil),
				}
			}
			return tasks
		}
		var maxC rtime.Duration
		for _, tk := range mk() {
			if c := tk.CriticalTime(); c > maxC {
				maxC = c
			}
		}
		horizon := rtime.Time(10 * maxC)
		run := func(cpus int) int64 {
			res, err := RunGlobal(Config{
				Tasks: mk(), Scheduler: sched.EDF{},
				Mode: LockFree, R: 40, S: 7, Horizon: horizon,
				ArrivalKind: uam.KindJittered, Seed: seed,
			}, cpus)
			if err != nil {
				t.Fatal(err)
			}
			return res.Completions
		}
		return run(2) >= run(1)
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalSingleCPUMatchesUniprocessorEngine: on one processor the
// global policy and the uniprocessor policy schedule identically, so
// every job ends in the same state at the same instant. Workloads are
// generated with shared objects, in both modes, under RUA. The relation
// holds on the subset where the policies' cost models coincide:
//
//   - AbortCost = 0: the global policy's handlers are instantaneous.
//   - OpCost = 0: the policies run different passes, and a pass's
//     overhead occupies the processor differently:
//     (1) the uniprocessor policy retires an abort in two events, the
//     critical-time abort and its evAbortDone departure, with a pass at
//     each; the global policy retires it at once, with one pass. The
//     extra passes are exactly the departure passes.
//     (2) a uniprocessor pass stops the running job for its overhead;
//     a global pass is a dispatch latency, and a job it selects again
//     keeps running through it.
//     At a zero charge neither difference moves a completion; at a
//     nonzero one, either shifts completions by the pass overhead.
//
// Preemption counts are not compared: the global policy marks every
// deschedule, the uniprocessor one only a displacement at the next
// dispatch.
func TestGlobalSingleCPUMatchesUniprocessorEngine(t *testing.T) {
	f := func(nRaw, aRaw uint8, execRaw, cRaw uint16, mRaw, objRaw, classRaw uint8, lockBased bool, seed int64) bool {
		mk := func() []*task.Task {
			tasks := randomWorkload(nRaw, aRaw, execRaw, cRaw, mRaw, objRaw, classRaw)
			for _, tk := range tasks {
				tk.AbortCost = 0
			}
			return tasks
		}
		mode, newRUA := LockFree, rua.NewLockFree
		if lockBased {
			mode, newRUA = LockBased, rua.NewLockBased
		}
		var maxC rtime.Duration
		for _, tk := range mk() {
			if c := tk.CriticalTime(); c > maxC {
				maxC = c
			}
		}
		horizon := rtime.Time(20 * maxC)
		kind := uam.Kind(uint64(seed) % 3)
		cfg := Config{
			Tasks: mk(), Scheduler: newRUA(), Mode: mode,
			R: 40, S: 7, Horizon: horizon, ArrivalKind: kind, Seed: seed,
			KeepJobs: true,
		}
		g, err := RunGlobal(cfg, 1)
		if err != nil {
			t.Logf("global: %v", err)
			return false
		}
		cfg.Tasks, cfg.Scheduler = mk(), newRUA()
		u, err := Run(cfg)
		if err != nil {
			t.Logf("uniprocessor: %v", err)
			return false
		}
		if len(g.Jobs) != len(u.Jobs) {
			t.Logf("%d global jobs vs %d uniprocessor jobs", len(g.Jobs), len(u.Jobs))
			return false
		}
		for i, gj := range g.Jobs {
			uj := u.Jobs[i]
			if gj.Name() != uj.Name() || gj.State != uj.State || gj.Completion != uj.Completion {
				t.Logf("%s: global %v at %v, uniprocessor %s %v at %v (%v)",
					gj.Name(), gj.State, gj.Completion, uj.Name(), uj.State, uj.Completion, mode)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 240}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
