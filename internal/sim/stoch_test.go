package sim

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// stochRun executes the canonical random workload under a plan and
// returns the result plus the full recorded event stream.
func stochRun(t *testing.T, plan *stoch.Plan, seed int64) (Result, []trace.Event) {
	t.Helper()
	tasks := randomWorkload(3, 1, 300, 2000, 3, 1, 0)
	rec := trace.NewRecorder(0)
	res, err := Run(Config{
		Tasks: tasks, Scheduler: rua.NewLockFree(), Mode: LockFree,
		R: 150, S: 5, OpCost: 0.02,
		Horizon: 200_000, ArrivalKind: uam.KindJittered, Seed: seed,
		ConservativeRetry: true, Stoch: plan, Observer: rec.Record,
	})
	if err != nil {
		t.Fatalf("stoch run: %v", err)
	}
	return res, rec.Events()
}

// TestStochNilPlanBitIdentical pins the tentpole's zero-cost contract:
// a nil plan, a zero plan, and an explicit "off" plan all reproduce
// the deterministic scheduler's event stream bit for bit.
func TestStochNilPlanBitIdentical(t *testing.T) {
	base, baseEvs := stochRun(t, nil, 1)
	off, err := stoch.ParsePlan("off")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *stoch.Plan
	}{
		{"zero", &stoch.Plan{}},
		{"off", off},
		{"quantum-without-dist", &stoch.Plan{Quantum: 100, PickProb: 1}},
	} {
		res, evs := stochRun(t, tc.plan, 1)
		if !reflect.DeepEqual(res.Jobs == nil, base.Jobs == nil) ||
			res.Completions != base.Completions || res.Retries != base.Retries ||
			res.CtxSwitches != base.CtxSwitches || res.SchedOps != base.SchedOps {
			t.Fatalf("%s plan diverged from plan-free run: %+v", tc.name, res)
		}
		if !reflect.DeepEqual(evs, baseEvs) {
			t.Fatalf("%s plan produced a different event stream", tc.name)
		}
	}
}

// TestStochDeterministic: the same active plan yields byte-identical
// event streams on repeated runs (every decision is a pure hash).
func TestStochDeterministic(t *testing.T) {
	for _, plan := range []*stoch.Plan{
		{Seed: 7, Dist: stoch.Uniform, Quantum: 200, PickProb: 0.25},
		{Seed: 7, Dist: stoch.Geometric, Quantum: 200, PickProb: 0.25},
	} {
		resA, evsA := stochRun(t, plan, 2)
		resB, evsB := stochRun(t, plan, 2)
		if resA.Completions != resB.Completions || resA.Retries != resB.Retries ||
			resA.CtxSwitches != resB.CtxSwitches {
			t.Fatalf("%v plan not deterministic: %+v vs %+v", plan.Dist, resA, resB)
		}
		if !reflect.DeepEqual(evsA, evsB) {
			t.Fatalf("%v plan event streams differ across runs", plan.Dist)
		}
	}
}

// TestStochPerturbs: an active plan must actually change the schedule
// — forced preemptions add scheduling passes over the plan-free run.
func TestStochPerturbs(t *testing.T) {
	base, _ := stochRun(t, nil, 3)
	pert, _ := stochRun(t, &stoch.Plan{Seed: 1, Dist: stoch.Uniform, Quantum: 100, PickProb: 0.25}, 3)
	if pert.SchedInvocations <= base.SchedInvocations {
		t.Fatalf("stochastic plan added no scheduling passes: %d vs %d",
			pert.SchedInvocations, base.SchedInvocations)
	}
	if pert.Completions == 0 {
		t.Fatal("stochastic run completed nothing; quantum starves the workload")
	}
}

// TestStochSeedsIndependent: different plan seeds produce different
// schedules on the same workload.
func TestStochSeedsIndependent(t *testing.T) {
	a, evsA := stochRun(t, &stoch.Plan{Seed: 1, Dist: stoch.Geometric, Quantum: 150, PickProb: 0.3}, 4)
	b, evsB := stochRun(t, &stoch.Plan{Seed: 2, Dist: stoch.Geometric, Quantum: 150, PickProb: 0.3}, 4)
	if a.SchedInvocations == b.SchedInvocations && reflect.DeepEqual(evsA, evsB) {
		t.Fatal("plan seeds 1 and 2 produced identical schedules")
	}
}

// TestStochEngineInvariants drives random workloads under random
// active plans through both modes, checking the engine's conservation
// and accounting invariants survive forced preemptions and random
// picks.
func TestStochEngineInvariants(t *testing.T) {
	f := func(nRaw, aRaw uint8, execRaw, cRaw uint16, mRaw, objRaw uint8,
		seed int64, planSeed int64, distRaw uint8, quantRaw uint16, pickRaw uint8) bool {
		tasks := randomWorkload(nRaw, aRaw, execRaw, cRaw, mRaw, objRaw, 0)
		plan := &stoch.Plan{
			Seed:     planSeed,
			Dist:     stoch.Dist(int(distRaw%2) + 1),
			Quantum:  rtime.Duration(quantRaw%500) + 1,
			PickProb: float64(pickRaw%100) / 100,
		}
		res, err := Run(Config{
			Tasks: tasks, Scheduler: rua.NewLockFree(), Mode: LockFree,
			R: 150, S: 5, OpCost: 0.02,
			Horizon: 100_000, ArrivalKind: uam.KindJittered, Seed: seed,
			ConservativeRetry: true, Stoch: plan, KeepJobs: true,
		})
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		var done, aborted, live int64
		for _, j := range res.Jobs {
			switch j.State {
			case task.Completed:
				done++
			case task.Aborted:
				aborted++
			default:
				live++
			}
		}
		if done != res.Completions || aborted != res.Aborts {
			t.Logf("conservation: done=%d/%d aborted=%d/%d", done, res.Completions, aborted, res.Aborts)
			return false
		}
		if res.Busy() > rtime.Duration(res.Horizon)+res.Overhead {
			t.Logf("busy %v exceeds horizon %v", res.Busy(), res.Horizon)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
