package experiment

import (
	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
)

// multiCPUCounts is the processor-count axis of the multiprocessor
// sweeps.
func multiCPUCounts(p Profile) []int {
	if p.Name == Quick.Name {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// multiWorkload builds the multiprocessor sweeps' template, MultiTasks
// tasks at total load ≈ 2.2, and its horizon under p. Sharing is
// re-clustered into pairs (task 2k and 2k+1 share private object k):
// the default workload's object ring would fuse all tasks into ONE
// component, which the object-aware partitioner must keep whole —
// partitioning can only help when the sharing graph actually
// decomposes.
func multiWorkload(p Profile) ([]*task.Task, rtime.Time, error) {
	w := WorkloadSpec{
		NumTasks: MultiTasks, NumObjects: 8, AccessesPerJob: 2,
		MeanExec: 500 * rtime.Microsecond, TargetAL: 2.2,
		Class: StepTUFs, MaxArrivals: 2,
	}
	template, err := w.Build()
	if err != nil {
		return nil, 0, err
	}
	for i, tk := range template {
		for si, seg := range tk.Segments {
			if seg.Kind == task.Access {
				tk.Segments[si].Object = i / 2
			}
		}
	}
	return template, horizonFor(template, p), nil
}

// MultiCPU extends the evaluation toward the paper's §7 future work:
// partitioned multiprocessor RUA. A task set with total load ≈ 2.2 —
// hopeless on one processor — is spread over 1, 2, 4, and 8 CPUs by the
// object-aware partitioner; aggregate AUR/CMR must climb toward 1 as
// per-CPU load falls below the uniprocessor capacity, and every
// partition individually still satisfies Theorem 2 (checked by the
// engine property suite; here we report the aggregate shape).
func MultiCPU(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "multicpu",
		Title:   "partitioned multiprocessor RUA: AUR/CMR vs CPU count (total load ≈ 2.2)",
		Note:    "16 tasks over 8 objects, lock-free RUA per CPU, object-aware partitioning",
		Columns: []string{"cpus", "AUR", "CMR", "retries"},
	}
	cpuCounts := multiCPUCounts(p)
	template, horizon, err := multiWorkload(p)
	if err != nil {
		return nil, err
	}
	cells, err := runner.Grid(p.Jobs, len(cpuCounts), 1, len(p.Seeds), func(ci, _, rep int) (metrics.RunStats, error) {
		cfg := baseConfig(task.CloneAll(template), horizon, p.Seeds[rep])
		cfg.Mode = sim.LockFree
		stats, err := runEngine(TraceSimMulti, cpuCounts[ci], cfg, false)
		if err != nil {
			return metrics.RunStats{}, err
		}
		return stats(), nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cpus := range cpuCounts {
		var aurs, cmrs []float64
		var retries int64
		for _, st := range cells[ci][0] {
			aurs = append(aurs, st.AUR)
			cmrs = append(cmrs, st.CMR)
			retries += st.Retries
		}
		t.AddRow(cpus,
			metrics.Summarize(aurs).String(),
			metrics.Summarize(cmrs).String(),
			retries)
	}
	return []*Table{t}, nil
}
