package experiment

import (
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uam"
)

// GlobalCPU contrasts the two §7 multiprocessor disciplines on the same
// overloaded, object-sharing workload: GLOBAL scheduling (one ready
// queue, migration, true parallel conflicts with commit-time validation
// — sim.RunGlobal) versus PARTITIONED (object-aware static assignment,
// each partition a paper-model uniprocessor — internal/multi). Two
// shapes matter: aggregate AUR climbs with CPUs either way, and global
// scheduling's retries GROW with CPUs because parallel commits conflict
// without any preemption — the regime where the paper's uniprocessor
// Theorem 2 no longer applies, which is exactly why it is future work.
func GlobalCPU(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "globalcpu",
		Title:   "global vs partitioned multiprocessor RUA (total load ≈ 2.2)",
		Note:    "16 tasks, pairs sharing an object; lock-free RUA; retries are totals over the run",
		Columns: []string{"cpus", "AUR_global", "AUR_partitioned", "retries_global", "retries_partitioned"},
	}
	cpuCounts := []int{1, 2, 4, 8}
	if p.Name == Quick.Name {
		cpuCounts = []int{1, 4}
	}
	w := WorkloadSpec{
		NumTasks: MultiTasks, NumObjects: 8, AccessesPerJob: 2,
		MeanExec: 500 * rtime.Microsecond, TargetAL: 2.2,
		Class: StepTUFs, MaxArrivals: 2,
	}
	template, err := w.Build()
	if err != nil {
		return nil, err
	}
	for i, tk := range template {
		obj := i / 2
		for si, seg := range tk.Segments {
			if seg.Kind == task.Access {
				tk.Segments[si].Object = obj
			}
		}
	}
	horizon := horizonFor(template, p)
	type cell struct {
		gAUR, pAUR         float64
		gRetries, pRetries int64
	}
	nSeeds := len(p.Seeds)
	cells, err := runner.Map(p.Jobs, len(cpuCounts)*nSeeds, func(i int) (cell, error) {
		cpus := cpuCounts[i/nSeeds]
		seed := p.Seeds[i%nSeeds]
		gRes, err := sim.RunGlobal(sim.GlobalConfig{
			CPUs: cpus, Tasks: task.CloneAll(template), Scheduler: rua.NewLockFree(),
			Mode: sim.LockFree, R: DefaultR, S: DefaultS, OpCost: 0,
			Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
		})
		if err != nil {
			return cell{}, err
		}
		gStats := metrics.Analyze(gRes)
		pRes, err := multi.Run(multi.Config{
			CPUs: cpus, Tasks: task.CloneAll(template), Mode: sim.LockFree,
			R: DefaultR, S: DefaultS, OpCost: 0,
			Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
			ConservativeRetry: false,
		})
		if err != nil {
			return cell{}, err
		}
		return cell{
			gAUR: gStats.AUR, pAUR: pRes.Stats.AUR,
			gRetries: gRes.Retries, pRetries: pRes.Stats.Retries,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cpus := range cpuCounts {
		var gAUR, pAUR []float64
		var gRetries, pRetries int64
		for si := 0; si < nSeeds; si++ {
			c := cells[ci*nSeeds+si]
			gAUR = append(gAUR, c.gAUR)
			pAUR = append(pAUR, c.pAUR)
			gRetries += c.gRetries
			pRetries += c.pRetries
		}
		t.AddRow(cpus,
			metrics.Summarize(gAUR).String(),
			metrics.Summarize(pAUR).String(),
			gRetries, pRetries)
	}
	return []*Table{t}, nil
}
