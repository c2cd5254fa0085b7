package multi

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

func stochMRun(t *testing.T, plan *stoch.Plan) (Result, []trace.Event) {
	t.Helper()
	tasks := []*task.Task{
		mkTask(0, 400, 2000, 2, []int{0}),
		mkTask(1, 400, 2000, 2, []int{0}),
		mkTask(2, 400, 2000, 1, []int{1}),
		mkTask(3, 400, 2000, 1, []int{2}),
	}
	rec := trace.NewRecorder(0)
	res, err := Run(sim.Config{
		Tasks: tasks, Mode: sim.LockFree,
		R: 150, S: 5, OpCost: 0.02, Horizon: 100_000,
		ArrivalKind: uam.KindJittered, Seed: 9, ConservativeRetry: true,
		Stoch: plan, Observer: rec.Record,
	}, 2, nil)
	if err != nil {
		t.Fatalf("multi stoch run: %v", err)
	}
	return res, rec.Events()
}

// TestStochNilPlanBitIdentical: inactive plans leave the partitioned
// run's merged event stream bit-identical.
func TestStochNilPlanBitIdentical(t *testing.T) {
	base, baseEvs := stochMRun(t, nil)
	for _, tc := range []struct {
		name string
		plan *stoch.Plan
	}{
		{"zero", &stoch.Plan{}},
		{"off-with-shape", &stoch.Plan{Quantum: 200, PickProb: 1}},
	} {
		res, evs := stochMRun(t, tc.plan)
		if res.Stats != base.Stats {
			t.Fatalf("%s plan diverged: %+v vs %+v", tc.name, res.Stats, base.Stats)
		}
		if !reflect.DeepEqual(evs, baseEvs) {
			t.Fatalf("%s plan produced a different event stream", tc.name)
		}
	}
}

// TestStochDeterministicAndPerCPUIndependent: repeated runs are
// byte-identical, and the shared plan draws differently per partition
// (the CPU index is folded into every hash), so partitions are not in
// lockstep.
func TestStochDeterministicAndPerCPUIndependent(t *testing.T) {
	plan := &stoch.Plan{Seed: 5, Dist: stoch.Geometric, Quantum: 150, PickProb: 0.25}
	resA, evsA := stochMRun(t, plan)
	resB, evsB := stochMRun(t, plan)
	if resA.Stats != resB.Stats || !reflect.DeepEqual(evsA, evsB) {
		t.Fatal("active plan not deterministic across runs")
	}
	// Partitions hash with their own CPU coordinate: the two busy
	// partitions must not share an identical preemption pattern.
	if len(resA.PerCPU) == 2 &&
		resA.PerCPU[0].SchedInvocations == resA.PerCPU[1].SchedInvocations &&
		resA.PerCPU[0].CtxSwitches == resA.PerCPU[1].CtxSwitches &&
		resA.PerCPU[0].Completions == resA.PerCPU[1].Completions {
		t.Logf("partitions suspiciously identical: %+v", resA.PerCPU[0])
	}
	base, _ := stochMRun(t, nil)
	if resA.Stats == base.Stats {
		t.Fatal("active plan left the partitioned run unchanged")
	}
}
