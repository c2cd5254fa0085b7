package experiment

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
)

// scaleCPUs is the processor count the multiprocessor engines use in the
// scaling sweep.
const scaleCPUs = 4

// scaleNs returns the task-count sweep: the quick profile stops at 10³
// (unit-test budget), the full profile covers the PR's 10²–10⁵ range.
func scaleNs(p Profile) []int {
	if p.Name == Quick.Name {
		return []int{100, 1000}
	}
	return []int{100, 1000, 10_000, 100_000}
}

// Scale sweeps the engines across task-set sizes n ∈ 10²–10⁵ on the
// clustered workload of ScaleWorkload: every (engine × sharing mode)
// combination runs the same n-task set for one seed, and the table
// reports deterministic outcome counters. Wall-clock belongs to the
// benchmark path (rtsim -bench-json, gated in CI against BENCH_PR6.json),
// not to the table: counters are byte-identical across machines, seconds
// are not.
//
// The sweep holds total load at AL ≈ 0.4 while n grows, so the live set
// stays paper-sized and the pressure lands where scaling hurts: the
// event queue (every queued arrival — the timing wheel's O(1) schedule
// per event vs the old heap's O(log n)) and the per-pass scratch
// (zero-alloc steady state). AUR/CMR must stay high at every n — a
// scheduler that only works at n=10 would show degradation here.
func Scale(p Profile) ([]*Table, error) {
	t := &Table{
		ID:    "scale",
		Title: "engine scaling over task-set size (uni/partitioned/global × lock-free/lock-based)",
		Note: fmt.Sprintf("clustered workload: %d-task clusters over %d private objects each, AL≈0.4, %d CPUs for multi/global, seed %d",
			PaperTasks, ScaleObjectsPerCluster, scaleCPUs, Quick.Seeds[0]),
		Columns: []string{"n", "engine", "mode", "released", "completed", "AUR", "CMR", "retries"},
	}
	ns := scaleNs(p)
	// The horizon multiplier is capped at the quick profile's: event count
	// already scales linearly with n, and the sweep's point is breadth in
	// n, not depth in virtual time.
	hp := p
	hp.HorizonMult = min(p.HorizonMult, Quick.HorizonMult)

	templates := make([][]*task.Task, len(ns))
	for i, n := range ns {
		tasks, err := ScaleWorkload(n, 0.4, StepTUFs)
		if err != nil {
			return nil, err
		}
		templates[i] = tasks
	}

	combos := []struct {
		engine string
		mode   sim.Mode
	}{
		{TraceSimUni, sim.LockFree}, {TraceSimUni, sim.LockBased},
		{TraceSimMulti, sim.LockFree}, {TraceSimMulti, sim.LockBased},
		{TraceSimGlobal, sim.LockFree}, {TraceSimGlobal, sim.LockBased},
	}
	cells, err := runner.Grid(p.Jobs, len(ns), len(combos), 1, func(ni, ci, _ int) (metrics.RunStats, error) {
		tasks := task.CloneAll(templates[ni])
		cfg := baseConfig(tasks, horizonFor(tasks, hp), Quick.Seeds[0])
		cfg.Mode, cfg.OpCost = combos[ci].mode, 0
		stats, err := runEngine(combos[ci].engine, scaleCPUs, cfg, false)
		if err != nil {
			return metrics.RunStats{}, err
		}
		return stats(), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range ns {
		for ci, cb := range combos {
			st := cells[ni][ci][0]
			mode := "lockfree"
			if cb.mode == sim.LockBased {
				mode = "lockbased"
			}
			t.AddRow(n, cb.engine, mode, st.Released, st.Completed,
				fmt.Sprintf("%.3f", st.AUR), fmt.Sprintf("%.3f", st.CMR), st.Retries)
		}
	}
	return []*Table{t}, nil
}
