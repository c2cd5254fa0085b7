package sim

// Cross-validation between the analytic plane and the simulator: on
// workloads where the §5 worst-case sojourn composition stays below the
// critical time, measured sojourns must never exceed it. This ties
// analysis.SojournInputs (Theorem 3's building blocks) to the engine's
// actual behaviour.

import (
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func TestQuickMeasuredSojournWithinAnalyticWorstCase(t *testing.T) {
	f := func(nRaw uint8, uRaw uint16, mRaw uint8, seed int64) bool {
		n := int(nRaw%3) + 2
		m := int(mRaw%3) + 1
		tasks := make([]*task.Task, n)
		for i := range tasks {
			u := rtime.Duration(uRaw%200) + 50
			// Generous critical times so the analytic worst case fits.
			c := 60 * u * rtime.Duration(n)
			tasks[i] = &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), c),
				Arrival:  uam.Spec{L: 0, A: 1, W: 2 * c},
				Segments: task.InterleavedSegments(u, m, []int{0}),
			}
		}
		const (
			r = rtime.Duration(40)
			s = rtime.Duration(7)
		)
		for _, mode := range []Mode{LockFree, LockBased} {
			cfg := Config{
				Tasks: tasks, Mode: mode,
				R: r, S: s, OpCost: 0,
				Horizon:     rtime.Time(30 * tasks[n-1].CriticalTime()),
				ArrivalKind: uam.KindBursty, Seed: seed,
				ConservativeRetry: true, KeepJobs: true,
			}
			if mode == LockFree {
				cfg.Scheduler = rua.NewLockFree()
			} else {
				cfg.Scheduler = rua.NewLockBased()
			}
			res, err := Run(cfg)
			if err != nil {
				t.Logf("engine: %v", err)
				return false
			}
			for _, j := range res.Jobs {
				if j.State != task.Completed {
					continue
				}
				i := j.Task.ID
				in, err := analysis.InputsFor(i, tasks, r, s)
				if err != nil {
					return false
				}
				interf, err := analysis.Interference(i, tasks, r)
				if err != nil {
					return false
				}
				in.I = interf
				var bound rtime.Duration
				if mode == LockFree {
					bound = in.LockFreeSojourn()
				} else {
					bound = in.LockBasedSojourn()
				}
				if got := j.Sojourn(); got > bound {
					t.Logf("%v %s: sojourn %v > analytic worst case %v",
						mode, j.Name(), got, bound)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
