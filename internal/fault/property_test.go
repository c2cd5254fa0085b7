package fault_test

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics/series"
	"repro/internal/multi"
	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/uam"
)

// planFor derives a distinct, reproducible plan from a test seed by
// spreading the seed's bits over every injector: the property tests
// range over plans that mix arrival faults, overruns, phantom CAS, and
// stalls in different proportions.
func planFor(seed int64) *fault.Plan {
	// Spread the seed over all 64 bits first so seeds with empty low
	// bits still produce live injectors.
	h := uint64(seed) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	f := func(shift uint) float64 { return float64((h>>shift)&7) / 7 }
	return &fault.Plan{
		Seed:        seed,
		BurstProb:   0.1 + 0.3*f(0),
		BurstSize:   1 + int(h&1),
		JitterProb:  0.1 + 0.4*f(3),
		JitterMax:   rtime.Duration(50 + (h>>6)&255),
		OverrunProb: 0.3 * f(9),
		OverrunFrac: 0.25 + 0.5*f(12),
		CASProb:     0.3 * f(15),
		CASMax:      1 + int((h>>18)&3),
		StallProb:   0.2 * f(20),
		StallDur:    rtime.Duration(20 + (h>>23)&127),
	}
}

// TestPropertySpanStreamsWellFormed is the ISSUE's first property: for
// any seeded fault plan, the uniprocessor and partitioned engines —
// running the admission-control RUA so sheds, injected retries, and
// overruns all appear — must emit event streams that fold cleanly:
// span.Build and series.FromEvents never report a malformed trace.
func TestPropertySpanStreamsWellFormed(t *testing.T) {
	tasks, err := experiment.TraceWorkloadSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	horizon := rtime.Time(30 * int64(tasks[len(tasks)-1].CriticalTime()))
	seeds := []int64{1, 2, 3, 0x5bd1e995, 0x9e3779b9, 1 << 40, -7}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		plan := planFor(seed)
		if !plan.Active() {
			t.Fatalf("seed %d produced an inactive plan; property needs live injectors", seed)
		}
		for _, engine := range []string{"uni", "multi"} {
			rec := trace.NewRecorder(0)
			newRUA := func() sched.Scheduler { return rua.NewLockFree().WithDegradation() }
			cfg := sim.Config{
				Tasks: task.CloneAll(tasks), Mode: sim.LockFree,
				R: experiment.DefaultR, S: experiment.DefaultS,
				OpCost:  experiment.DefaultOpCost,
				Horizon: horizon, ArrivalKind: uam.KindBursty, Seed: seed,
				ConservativeRetry: true, Fault: plan, Observer: rec.Record,
			}
			var runErr error
			cpus := 1
			switch engine {
			case "uni":
				cfg.Scheduler = newRUA()
				_, runErr = sim.Run(cfg)
			case "multi":
				cpus = 2
				_, runErr = multi.Run(cfg, cpus, newRUA)
			}
			if runErr != nil {
				t.Fatalf("seed %d %s: run: %v", seed, engine, runErr)
			}
			events := rec.Events()
			if _, err := span.Build(events, horizon); err != nil {
				t.Errorf("seed %d %s: span.Build rejected the stream: %v", seed, engine, err)
			}
			if _, err := series.FromEvents(events, horizon, series.Config{
				Window: series.WindowFor(horizon, 0), CPUs: cpus,
			}); err != nil {
				t.Errorf("seed %d %s: series.FromEvents rejected the stream: %v", seed, engine, err)
			}
		}
	}
}

// TestPropertyShedOnlyDoomed is the ISSUE's second property: across
// randomized worlds, admission-control RUA never sheds a job that could
// still meet its critical time running alone from now on — shedding is
// reserved for jobs that are already doomed.
func TestPropertyShedOnlyDoomed(t *testing.T) {
	tasks, err := experiment.TraceWorkloadSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 40; seed++ {
		jobs := make([]*task.Job, len(tasks))
		for i, tk := range tasks {
			// Stagger releases by seed-derived offsets so, as Now
			// advances below, some jobs are comfortably feasible and
			// others are past saving.
			rel := rtime.Time((seed*31 + int64(i)*97) % int64(tk.CriticalTime()))
			jobs[i] = task.NewJob(tk, 0, rel)
			jobs[i].EngineSlot = int32(i)
		}
		// Sweep Now across the spread of critical times to hit both
		// regimes in every world.
		maxC := tasks[len(tasks)-1].CriticalTime()
		for _, now := range []rtime.Time{0, rtime.Time(int64(maxC) / 2), rtime.Time(int64(maxC) * 2)} {
			w := sched.World{Now: now, Jobs: jobs, Res: resource.NewMap(), Acc: experiment.DefaultS}
			_, aborts, _ := rua.NewLockFree().WithDegradation().SelectTopKAbort(w, len(jobs))
			shed := map[*task.Job]bool{}
			for _, j := range aborts {
				shed[j] = true
				if !now.Add(j.Remaining(w.Acc)).After(j.AbsoluteCriticalTime()) {
					t.Fatalf("seed %d now %d: shed J[%d,%d] which could still finish by %d (remaining %d)",
						seed, now, j.Task.ID, j.Seq, j.AbsoluteCriticalTime(), j.Remaining(w.Acc))
				}
			}
			for _, j := range jobs {
				feasibleAlone := !now.Add(j.Remaining(w.Acc)).After(j.AbsoluteCriticalTime())
				if feasibleAlone && shed[j] {
					t.Fatalf("seed %d now %d: feasible job J[%d,%d] was shed", seed, now, j.Task.ID, j.Seq)
				}
			}
		}
	}
}
