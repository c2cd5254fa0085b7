package experiment

import (
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// LockDisciplines lines up the synchronization disciplines of §1.1 on
// one sharing-heavy workload: naive lock-based EDF (unbounded priority
// inversion), EDF with priority inheritance (inversion bounded, but
// urgency-only), lock-based RUA (dependency-chain UA scheduling), and
// lock-free RUA (the paper's answer). Under load the UA schedulers
// dominate decisively; between the two deadline schedulers the access
// costs saturate the processor so thoroughly that bounding inversion
// (PIP) cannot rescue either — neither sheds load, which is the paper's
// §1 point about deadline scheduling during overloads.
func LockDisciplines(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "lockdisc",
		Title:   "synchronization disciplines under sharing-heavy load",
		Note:    "10 tasks, 6 accesses over 2 objects; AUR mean ± 95% CI",
		Columns: []string{"AL", "AUR_edf_locks", "AUR_pip_locks", "AUR_rua_locks", "AUR_rua_lockfree"},
	}
	variants := []variant{
		func(cfg *sim.Config) { cfg.Scheduler, cfg.Mode = sched.EDF{}, sim.LockBased },
		func(cfg *sim.Config) { cfg.Scheduler, cfg.Mode = sched.PIP{}, sim.LockBased },
		lockBasedRUA,
		lockFreeRUA,
	}
	loads := []float64{0.3, 0.6, 0.9}
	if p.Name == Quick.Name {
		loads = []float64{0.6}
	}
	points, err := specPoints(loads, func(al float64) WorkloadSpec {
		return WorkloadSpec{
			NumTasks: PaperTasks, NumObjects: 2, AccessesPerJob: 6,
			MeanExec: 500 * rtime.Microsecond, TargetAL: al,
			Class: StepTUFs, MaxArrivals: 2,
		}
	})
	if err != nil {
		return nil, err
	}
	aurs, err := runSweep(p, points, variants, simCell(aur))
	if err != nil {
		return nil, err
	}
	for li, al := range loads {
		t.AddRow(summaryRow(al, aurs[li])...)
	}
	return []*Table{t}, nil
}
