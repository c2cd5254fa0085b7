package experiment

import (
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Baselines compares the utility-accrual schedulers across the load
// spectrum on lock-free objects: lock-free RUA (the paper's algorithm),
// LBESA (the ancestral best-effort UA scheduler), EDF (urgency only),
// and LLF (fully-dynamic laxity). During underload all four should be
// near-equivalent (UA schedulers default to deadline order); during
// overload the UA schedulers must accrue more utility than EDF/LLF,
// which thrash on infeasible urgent work — the paper's core motivation
// (§1: "deadlines by themselves cannot express both urgency and
// importance").
func Baselines(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "baselines",
		Title:   "UA schedulers vs deadline schedulers across load (lock-free objects)",
		Note:    "AUR mean ± 95% CI; 10 tasks, heterogeneous TUFs, 4 accesses over 4 objects",
		Columns: []string{"AL", "AUR_rua", "AUR_lbesa", "AUR_edf", "AUR_llf"},
	}
	loads := []float64{0.3, 0.6, 0.9, 1.2, 1.5}
	if p.Name == Quick.Name {
		loads = []float64{0.3, 1.2}
	}
	variants := []variant{
		lockFreeRUA,
		{func() sched.Scheduler { return sched.LBESA{} }, sim.LockFree},
		{func() sched.Scheduler { return sched.EDF{} }, sim.LockFree},
		{func() sched.Scheduler { return sched.LLF{} }, sim.LockFree},
	}
	points := make([]sweepPoint, len(loads))
	for li, al := range loads {
		points[li] = defaultPoint(WorkloadSpec{
			NumTasks: PaperTasks, NumObjects: 4, AccessesPerJob: 4,
			MeanExec: 500 * rtime.Microsecond, TargetAL: al,
			Class: HeterogeneousTUFs, MaxArrivals: 2,
		})
	}
	aurs, err := runSweep(p, points, variants, aur)
	if err != nil {
		return nil, err
	}
	for li, al := range loads {
		t.AddRow(summaryRow(al, aurs[li])...)
	}
	return []*Table{t}, nil
}
