package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
)

// FaultSweep sweeps the heavy fault plan's intensity from 0 (fault-free)
// to 1 and contrasts lock-free RUA with and without admission-control
// shedding. It is the overload/robustness experiment the paper's §6 does
// not run but its §3.5 abort-handler model invites: as injected arrival
// bursts, execution overruns, phantom CAS failures, and scheduler stalls
// intensify, accrued utility should degrade gracefully — and the
// shedding variant should convert doomed-job thrash into early aborts
// without ever dropping a feasible job.
//
// Determinism: the plan seed is fixed and injection decisions are pure
// hashes of (seed, task, indices), so every cell is a pure function of
// its grid slot; cells fan out on runner.Grid and merge by index, making
// the rendered table byte-identical for any Jobs value.
func FaultSweep(p Profile) ([]*Table, error) {
	t := &Table{
		ID:    "faults",
		Title: "fault-injection sweep: lock-free RUA, plain vs admission-control shedding",
		Note: fmt.Sprintf("heavy plan scaled by intensity; r=%v s=%v; mean ± 95%% CI over %d seeds",
			DefaultR, DefaultS, len(p.Seeds)),
		Columns: []string{"intensity", "AUR_plain", "AUR_shed", "CMR_plain", "CMR_shed",
			"inj_retries", "overruns", "stalls", "sheds"},
	}
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	if p.Name == Quick.Name {
		intensities = []float64{0, 0.5, 1.0}
	}
	w := WorkloadSpec{
		NumTasks: PaperTasks, NumObjects: 5, AccessesPerJob: 4,
		MeanExec: 500 * rtime.Microsecond, TargetAL: 1.0,
		Class: StepTUFs, MaxArrivals: 2,
	}
	template, err := w.Build()
	if err != nil {
		return nil, err
	}
	horizon := horizonFor(template, p)

	base := fault.Heavy()
	base.Seed = 1

	// Grid: intensity × {plain, shed} × seed.
	type cell struct {
		stats      metrics.RunStats
		injRetries int64
		overruns   int64
		stalls     int64
		sheds      int64
	}
	cells, err := runner.Grid(p.Jobs, len(intensities), 2, len(p.Seeds), func(ii, shed, rep int) (cell, error) {
		cfg := baseConfig(task.CloneAll(template), horizon, p.Seeds[rep])
		s := rua.NewLockFree()
		if shed == 1 {
			s = s.WithDegradation()
		}
		cfg.Scheduler, cfg.Mode, cfg.Fault = s, sim.LockFree, base.Scale(intensities[ii])
		res, err := sim.Run(cfg)
		if err != nil {
			return cell{}, err
		}
		return cell{
			stats:      metrics.Analyze(res),
			injRetries: res.FaultRetries,
			overruns:   res.FaultOverruns,
			stalls:     res.FaultStalls,
			sheds:      res.SchedAborts,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ii, intensity := range intensities {
		var stats [2][]metrics.RunStats // plain, shed
		var injRetries, overruns, stalls, sheds int64
		for v, runs := range cells[ii] {
			for _, c := range runs {
				stats[v] = append(stats[v], c.stats)
				injRetries += c.injRetries
				overruns += c.overruns
				stalls += c.stalls
				if v == 1 {
					sheds += c.sheds
				}
			}
		}
		row := append([]any{intensity}, aurCMRCells(stats[0], stats[1])...)
		t.AddRow(append(row, injRetries, overruns, stalls, sheds)...)
	}
	return []*Table{t}, nil
}
