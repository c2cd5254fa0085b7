package multi

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uam"
)

// TestHeavyFaultRunBytes bounds what one partitioned run allocates under
// an arrival-perturbing plan. The timing wheel's initial arena is sized
// from each task's declared a, not from the inflated a of its perturbed
// arrivals (fault.Plan.EffectiveSpec): the arena grows on demand, and
// the inflated spec reserved 19 nodes per task for a = 2 under
// fault.Heavy(): about 92.5 kB per run on this workload, against about
// 86 kB when sized from the declared spec.
func TestHeavyFaultRunBytes(t *testing.T) {
	heapBytes := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	tasks := make([]*task.Task, 8)
	for i := range tasks {
		tasks[i] = mkTask(i, 500, 2000, 2, []int{i})
	}
	cfg := sim.Config{
		Tasks: tasks, Mode: sim.LockFree,
		R: 150, S: 5, Horizon: 20_000, ArrivalKind: uam.KindJittered,
		Seed: 3, ConservativeRetry: true, Fault: fault.Heavy(),
	}
	run := func() {
		if _, err := Run(cfg, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // one-time lazy initialisation stays out of the measurement
	const runs = 20
	b0 := heapBytes()
	for i := 0; i < runs; i++ {
		run()
	}
	per := float64(heapBytes()-b0) / runs
	t.Logf("%.0f B per run", per)
	if per > 89_000 {
		t.Fatalf("%.0f B per run, want at most 89000", per)
	}
}
