package experiment

import (
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
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
	cpuCounts := multiCPUCounts(p)
	template, horizon, err := multiWorkload(p)
	if err != nil {
		return nil, err
	}
	engines := []string{TraceSimGlobal, TraceSimMulti}
	cells, err := runner.Grid(p.Jobs, len(cpuCounts), len(engines), len(p.Seeds), func(ci, ei, rep int) (metrics.RunStats, error) {
		cfg := baseConfig(task.CloneAll(template), horizon, p.Seeds[rep])
		cfg.Mode, cfg.OpCost, cfg.ConservativeRetry = sim.LockFree, 0, false
		stats, err := runEngine(engines[ei], cpuCounts[ci], cfg, false)
		if err != nil {
			return metrics.RunStats{}, err
		}
		return stats(), nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cpus := range cpuCounts {
		var aurs [2][]float64
		var retries [2]int64
		for ei, runs := range cells[ci] {
			for _, st := range runs {
				aurs[ei] = append(aurs[ei], st.AUR)
				retries[ei] += st.Retries
			}
		}
		t.AddRow(cpus,
			metrics.Summarize(aurs[0]).String(),
			metrics.Summarize(aurs[1]).String(),
			retries[0], retries[1])
	}
	return []*Table{t}, nil
}
