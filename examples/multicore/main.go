// Multicore demonstrates the two §7 multiprocessor extensions on an
// overloaded workload: partitioned RUA (object-aware static assignment;
// each partition is exactly the paper's uniprocessor model, so all the
// single-CPU results keep holding per partition) versus global RUA (one
// ready queue, migration, and true parallel object conflicts resolved by
// commit-time validation). Watch two numbers as CPUs grow: aggregate
// utility recovers either way, but GLOBAL retries climb with parallelism
// — the regime the paper's uniprocessor Theorem 2 deliberately does not
// cover.
package main

import (
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// tasks builds 12 tasks at total load ≈ 2.2; pairs share a private
// object so the sharing graph decomposes into 6 components.
func tasks() []*task.Task {
	out := make([]*task.Task, 12)
	for i := range out {
		c := rtime.Duration(2000 + 200*i)
		out[i] = &task.Task{
			ID:       i,
			Name:     fmt.Sprintf("T%d", i),
			TUF:      tuf.MustStep(float64(10*(i+1)), c),
			Arrival:  uam.Spec{L: 0, A: 2, W: c},
			Segments: task.InterleavedSegments(500*rtime.Microsecond, 2, []int{i / 2}),
		}
	}
	return out
}

func main() {
	const horizon = rtime.Time(400 * rtime.Millisecond)
	fmt.Printf("%4s  %22s  %22s\n", "cpus", "partitioned AUR/retries", "global AUR/retries")
	for _, cpus := range []int{1, 2, 3, 4, 6} {
		cfg := sim.Config{
			Tasks: tasks(), Mode: sim.LockFree, R: 150, S: 5, Horizon: horizon,
			ArrivalKind: uam.KindJittered, Seed: 11,
		}
		p, err := multi.Run(cfg, cpus, nil)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tasks, cfg.Scheduler = tasks(), rua.NewLockFree()
		g, err := sim.RunGlobal(cfg, cpus)
		if err != nil {
			log.Fatal(err)
		}
		gs := metrics.Analyze(g)
		fmt.Printf("%4d  %15.3f / %4d  %15.3f / %4d\n",
			cpus, p.Stats.AUR, p.Stats.Retries, gs.AUR, gs.Retries)
	}
	fmt.Println()
	fmt.Println("Partitioned keeps each partition inside the paper's uniprocessor model")
	fmt.Println("(Theorem 2 holds per partition); global scheduling migrates freely but")
	fmt.Println("pays parallel commit conflicts — retries grow with the CPU count.")
}
