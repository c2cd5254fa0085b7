package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// globalTask is stepTask with a UAM window of twice the critical time.
func globalTask(id int, u float64, c rtime.Duration, comp rtime.Duration, m int, objs []int) *task.Task {
	return stepTask(id, u, c, 2*c, comp, m, objs)
}

// globalStaged runs the global engine on explicit per-task arrivals.
func globalStaged(t *testing.T, cfg Config, cpus int, arrivals map[int][]rtime.Time) Result {
	t.Helper()
	traces := make([]uam.Trace, len(cfg.Tasks))
	for ti, times := range arrivals {
		traces[ti] = append(traces[ti], times...)
	}
	cfg.Arrivals = traces
	cfg.KeepJobs = true
	r, err := RunGlobal(cfg, cpus)
	if err != nil {
		t.Fatalf("global engine error: %v", err)
	}
	return r
}

func TestGlobalConfigValidation(t *testing.T) {
	good := Config{
		Tasks:     []*task.Task{globalTask(0, 1, 1000, 100, 0, nil)},
		Scheduler: sched.EDF{}, R: 10, S: 3, Horizon: 10_000,
	}
	if _, err := NewGlobal(good, 2); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if _, err := NewGlobal(good, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("no-cpus accepted: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"no-tasks":  func(c *Config) { c.Tasks = nil },
		"no-sched":  func(c *Config) { c.Scheduler = nil },
		"not-topk":  func(c *Config) { c.Scheduler = sched.LBESA{} },
		"bad-r":     func(c *Config) { c.R = 0 },
		"abortcost": func(c *Config) { c.Tasks[0].AbortCost = 5 },
		"explicit-sections": func(c *Config) {
			tk := nestedTask(0, 1, 1000, []task.Segment{
				{Kind: task.Lock, Object: 0}, {Kind: task.Compute, D: 10}, {Kind: task.Unlock, Object: 0},
			})
			tk.AbortCost = 0
			c.Tasks[0] = tk
		},
		// Explicit arrival traces get the uniprocessor engine's checks.
		"unsorted-arrivals":     func(c *Config) { c.Arrivals = []uam.Trace{{100, 50}} },
		"negative-arrival":      func(c *Config) { c.Arrivals = []uam.Trace{{-5}} },
		"arrival-past-horizon":  func(c *Config) { c.Arrivals = []uam.Trace{{c.Horizon}} },
		"surplus-arrival-trace": func(c *Config) { c.Arrivals = []uam.Trace{{0}, {0}} },
		// Fields the global policy cannot honor.
		"conservative-retry": func(c *Config) { c.ConservativeRetry = true },
		"stoch-cpu":          func(c *Config) { c.StochCPU = 1 },
	} {
		c := good
		c.Tasks = []*task.Task{globalTask(0, 1, 1000, 100, 0, nil)}
		mut(&c)
		if _, err := NewGlobal(c, 2); !errors.Is(err, ErrConfig) {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
}

func TestGlobalParallelIndependentJobs(t *testing.T) {
	// Two independent jobs on two CPUs both finish at their solo times.
	t0 := globalTask(0, 1, 1000, 100, 0, nil)
	t1 := globalTask(1, 1, 1000, 150, 0, nil)
	r := globalStaged(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 10_000,
	}, 2, map[int][]rtime.Time{0: {0}, 1: {0}})
	if j := jobOf(r, 0, 0); j.Completion != 100 {
		t.Fatalf("j0 completion = %v, want 100 (ran in parallel)", j.Completion)
	}
	if j := jobOf(r, 1, 0); j.Completion != 150 {
		t.Fatalf("j1 completion = %v, want 150", j.Completion)
	}
}

func TestGlobalCommitTimeValidationConflict(t *testing.T) {
	// Two CPUs, same object, overlapping accesses: the loser validates at
	// commit time, retries once, and completes one access later.
	t0 := globalTask(0, 1, 1000, 20, 1, []int{0}) // C(10) A C(10)
	t1 := globalTask(1, 1, 2000, 20, 1, []int{0})
	r := globalStaged(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 20, S: 20, Horizon: 10_000,
	}, 2, map[int][]rtime.Time{0: {0}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// Both enter the access at t=10 and reach commit at t=30; CPU0's T0
	// wins, T1 fails validation and re-runs the access 30-50, then
	// computes to 60.
	if j0.Completion != 40 {
		t.Fatalf("j0 completion = %v, want 40", j0.Completion)
	}
	if j0.Retries != 0 {
		t.Fatalf("winner retried: %d", j0.Retries)
	}
	if j1.Retries != 1 {
		t.Fatalf("loser retries = %d, want 1", j1.Retries)
	}
	if j1.Completion != 60 {
		t.Fatalf("j1 completion = %v, want 60", j1.Completion)
	}
	if r.Retries != 1 {
		t.Fatalf("total retries = %d", r.Retries)
	}
}

func TestGlobalParallelDisjointObjectsNoRetry(t *testing.T) {
	t0 := globalTask(0, 1, 1000, 20, 1, []int{0})
	t1 := globalTask(1, 1, 2000, 20, 1, []int{1})
	r := globalStaged(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 20, S: 20, Horizon: 10_000,
	}, 2, map[int][]rtime.Time{0: {0}, 1: {0}})
	if r.Retries != 0 {
		t.Fatalf("disjoint objects retried: %d", r.Retries)
	}
	if jobOf(r, 0, 0).Completion != 40 || jobOf(r, 1, 0).Completion != 40 {
		t.Fatal("parallel disjoint jobs delayed")
	}
}

func TestGlobalLockBasedCrossCPUBlocking(t *testing.T) {
	// T0 on CPU0 holds the object; T1 on CPU1 blocks at its boundary and
	// resumes after the release — blocking across processors.
	t0 := globalTask(0, 1, 1000, 20, 1, []int{0})
	t1 := globalTask(1, 1, 2000, 20, 1, []int{0})
	r := globalStaged(t, Config{
		Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: LockBased, R: 20, S: 3, Horizon: 10_000,
	}, 2, map[int][]rtime.Time{0: {0}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// Both compute 0-10 in parallel; T0 takes the lock (EDF ranks it
	// first at the simultaneous boundary), T1 blocks; T0's access 10-30,
	// unlock, T1's access 30-50, both finish compute 10 later.
	if j0.Completion != 40 {
		t.Fatalf("j0 completion = %v, want 40", j0.Completion)
	}
	if j1.Completion != 60 {
		t.Fatalf("j1 completion = %v, want 60", j1.Completion)
	}
	if j1.Blockings != 1 {
		t.Fatalf("j1 blockings = %d, want 1", j1.Blockings)
	}
}

func TestGlobalAbortWhenCriticalTimeExpires(t *testing.T) {
	hopeless := globalTask(0, 1, 100, 500, 0, nil)
	ok := globalTask(1, 1, 1000, 50, 0, nil)
	r := globalStaged(t, Config{
		Tasks: []*task.Task{hopeless, ok}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 5000,
	}, 1, map[int][]rtime.Time{0: {0}, 1: {0}})
	if jobOf(r, 0, 0).State != task.Aborted {
		t.Fatal("hopeless job not aborted")
	}
	if jobOf(r, 1, 0).State != task.Completed {
		t.Fatal("feasible job lost")
	}
}

func TestGlobalAffinityPreserved(t *testing.T) {
	// Two long-running jobs on two CPUs; a third arrival that ranks below
	// them must not displace either (no needless migration/preemption).
	t0 := globalTask(0, 1, 2000, 500, 0, nil)
	t1 := globalTask(1, 1, 2100, 500, 0, nil)
	t2 := globalTask(2, 1, 5000, 100, 0, nil) // latest critical time
	r := globalStaged(t, Config{
		Tasks: []*task.Task{t0, t1, t2}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 10_000,
	}, 2, map[int][]rtime.Time{0: {0}, 1: {0}, 2: {100}})
	j0, j1, j2 := jobOf(r, 0, 0), jobOf(r, 1, 0), jobOf(r, 2, 0)
	if j0.Preempts != 0 || j1.Preempts != 0 {
		t.Fatalf("running jobs displaced: %d, %d preempts", j0.Preempts, j1.Preempts)
	}
	if j0.Completion != 500 || j1.Completion != 500 {
		t.Fatalf("completions = %v, %v; want 500, 500", j0.Completion, j1.Completion)
	}
	// The latecomer waits for a CPU, then runs 500-600.
	if j2.Completion != 600 {
		t.Fatalf("j2 completion = %v, want 600", j2.Completion)
	}
}

func TestGlobalMigrationAcrossCPUs(t *testing.T) {
	// j2 (middle urgency) starts on a CPU, is displaced by a more urgent
	// arrival, and resumes later — global scheduling allows it to land on
	// whichever CPU frees first.
	t0 := globalTask(0, 1, 3000, 400, 0, nil)
	t1 := globalTask(1, 1, 3100, 400, 0, nil)
	t2 := globalTask(2, 1, 900, 200, 0, nil) // urgent latecomer
	r := globalStaged(t, Config{
		Tasks: []*task.Task{t0, t1, t2}, Scheduler: sched.EDF{},
		Mode: LockFree, R: 10, S: 3, Horizon: 10_000,
	}, 2, map[int][]rtime.Time{0: {0}, 1: {0}, 2: {100}})
	for _, j := range r.Jobs {
		if j.State != task.Completed {
			t.Fatalf("%s = %v", j.Name(), j.State)
		}
	}
	j2 := jobOf(r, 2, 0)
	if j2.Completion != 300 { // preempts one of the others at 100
		t.Fatalf("urgent completion = %v, want 300", j2.Completion)
	}
	// Exactly one of the background jobs was displaced and finishes late.
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	late := j0.Completion
	if j1.Completion > late {
		late = j1.Completion
	}
	if late != 600 { // 400 own + 200 displaced
		t.Fatalf("displaced completion = %v, want 600", late)
	}
}

// globalStochWorkload builds a contended multi-CPU workload: four tasks, two
// of them sharing object 1, enough load that the ranked list usually
// holds more than one candidate (so shuffles have something to do).
func globalStochWorkload() []*task.Task {
	return []*task.Task{
		globalTask(0, 40, 4000, 400, 2, []int{1}),
		globalTask(1, 30, 4000, 400, 2, []int{1}),
		globalTask(2, 20, 3000, 300, 1, []int{2}),
		globalTask(3, 10, 3000, 300, 0, nil),
	}
}

func globalStochRun(t *testing.T, plan *stoch.Plan) (Result, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder(0)
	res, err := RunGlobal(Config{
		Tasks: globalStochWorkload(), Scheduler: rua.NewLockFree(),
		Mode: LockFree, R: 150, S: 5, OpCost: 0.02,
		Horizon: 100_000, ArrivalKind: uam.KindJittered, Seed: 42,
		Stoch: plan, Observer: rec.Record, KeepJobs: true,
	}, 2)
	if err != nil {
		t.Fatalf("global stoch run: %v", err)
	}
	return res, rec.Events()
}

// TestStochNilPlanBitIdentical: nil, zero, and Off plans reproduce the
// plan-free global engine's event stream exactly.
func TestGlobalStochNilPlanBitIdentical(t *testing.T) {
	base, baseEvs := globalStochRun(t, nil)
	for _, tc := range []struct {
		name string
		plan *stoch.Plan
	}{
		{"zero", &stoch.Plan{}},
		{"off-with-shape", &stoch.Plan{Quantum: 200, PickProb: 1}},
	} {
		res, evs := globalStochRun(t, tc.plan)
		if res.Completions != base.Completions || res.Retries != base.Retries ||
			res.SchedInvocations != base.SchedInvocations {
			t.Fatalf("%s plan diverged: %+v vs %+v", tc.name, res, base)
		}
		if !reflect.DeepEqual(evs, baseEvs) {
			t.Fatalf("%s plan produced a different event stream", tc.name)
		}
	}
}

// TestStochDeterministic: repeated runs under one active plan are
// byte-identical, for both distributions.
func TestGlobalStochDeterministic(t *testing.T) {
	for _, plan := range []*stoch.Plan{
		{Seed: 7, Dist: stoch.Uniform, Quantum: 200, PickProb: 0.25},
		{Seed: 7, Dist: stoch.Geometric, Quantum: 200, PickProb: 0.25},
	} {
		resA, evsA := globalStochRun(t, plan)
		resB, evsB := globalStochRun(t, plan)
		if resA.Completions != resB.Completions || resA.Retries != resB.Retries {
			t.Fatalf("%v plan not deterministic", plan.Dist)
		}
		if !reflect.DeepEqual(evsA, evsB) {
			t.Fatalf("%v plan event streams differ across runs", plan.Dist)
		}
	}
}

// TestStochPerturbs: quantum preemption must add scheduling passes and
// preserve conservation on the global engine.
func TestGlobalStochPerturbs(t *testing.T) {
	base, _ := globalStochRun(t, nil)
	pert, _ := globalStochRun(t, &stoch.Plan{Seed: 3, Dist: stoch.Geometric, Quantum: 100, PickProb: 0.5})
	if pert.SchedInvocations <= base.SchedInvocations {
		t.Fatalf("stochastic plan added no scheduling passes: %d vs %d",
			pert.SchedInvocations, base.SchedInvocations)
	}
	if pert.Completions+pert.Aborts == 0 {
		t.Fatal("stochastic run finished no jobs")
	}
	if got := int64(len(pert.Jobs)); got != pert.Arrivals {
		t.Fatalf("conservation broke under stoch: %d jobs, %d arrivals", got, pert.Arrivals)
	}
}
