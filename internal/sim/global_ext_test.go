package sim_test

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// The tests here judge runs by metrics.Analyze, which imports sim.

func TestGlobalOverloadSpreads(t *testing.T) {
	mk := func() []*task.Task {
		var out []*task.Task
		for i := 0; i < 8; i++ {
			out = append(out, &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), 2000),
				Arrival:  uam.Spec{L: 0, A: 2, W: 2000},
				Segments: task.InterleavedSegments(500, 2, []int{i}),
			})
		}
		return out
	}
	run := func(cpus int) metrics.RunStats {
		r, err := sim.RunGlobal(sim.Config{
			Tasks: mk(), Scheduler: rua.NewLockFree(),
			Mode: sim.LockFree, R: 150, S: 5, Horizon: 100_000,
			ArrivalKind: uam.KindJittered, Seed: 5,
		}, cpus)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Analyze(r)
	}
	one, four := run(1), run(4)
	if one.AUR >= 0.9 {
		t.Fatalf("1 CPU not overloaded: %v", one.AUR)
	}
	if four.AUR <= one.AUR+0.1 {
		t.Fatalf("4 CPUs did not help: %v vs %v", four.AUR, one.AUR)
	}
}
