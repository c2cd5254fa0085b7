// Root benchmarks: one per paper table/figure, as testing.B targets.
//
//	Fig 8  → BenchmarkFig8ObjectAccess (real atomics vs mutex: measured s, r)
//	Fig 9  → BenchmarkFig9CMLPoint (one CML probe per scheduler variant)
//	Figs 10–13 → BenchmarkAURCMRPoint (one AUR/CMR cell per mode/load/class)
//	Fig 14 → BenchmarkFig14LoadPoint
//	Thm 2  → BenchmarkRetryBound (analytic) + BenchmarkThm2Validation (sim)
//	Thm 3  → BenchmarkSojournAnalysis
//	§3.6/§5 costs table → BenchmarkRUASchedulePass
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/lockfree"
	"repro/internal/lockobj"
	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/uam"
)

// The Fig 8 pairs are like for like: each lock-free object and its
// mutex twin expose the same access methods, so a sub-benchmark and its
// twin drive identical calls.
type fig8Queue interface {
	Enqueue(int)
	Dequeue() (int, bool)
}

type fig8Register interface {
	Read() (int, uint64)
	Write(int) uint64
	Update(func(int) int) uint64
}

var (
	_ fig8Queue    = (*lockfree.Queue[int])(nil)
	_ fig8Queue    = (*lockobj.Queue[int])(nil)
	_ fig8Register = (*lockfree.Register[int])(nil)
	_ fig8Register = (*lockobj.Register[int])(nil)
)

// BenchmarkFig8ObjectAccess measures the real lock-free (s) and
// lock-based (r) object access times on this machine's atomics — the
// hardware ground truth behind Fig 8. Sub-benchmarks cover the queue
// (the paper's object), sequential and contended, and the register,
// contended.
func BenchmarkFig8ObjectAccess(b *testing.B) {
	b.Run("queue/lockfree/sequential", func(b *testing.B) {
		q := lockfree.NewQueue[int]()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Enqueue(i)
			q.Dequeue()
		}
	})
	b.Run("queue/mutex/sequential", func(b *testing.B) {
		q := lockobj.NewQueue[int]()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Enqueue(i)
			q.Dequeue()
		}
	})
	b.Run("queue/lockfree/contended", func(b *testing.B) {
		q := lockfree.NewQueue[int]()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q.Enqueue(i)
				q.Dequeue()
				i++
			}
		})
	})
	b.Run("queue/mutex/contended", func(b *testing.B) {
		q := lockobj.NewQueue[int]()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q.Enqueue(i)
				q.Dequeue()
				i++
			}
		})
	})
	b.Run("register/lockfree/contended", func(b *testing.B) {
		r := lockfree.NewRegister(0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Update(func(v int) int { return v + 1 })
			}
		})
	})
	b.Run("register/mutex/contended", func(b *testing.B) {
		r := lockobj.NewRegister(0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Update(func(v int) int { return v + 1 })
			}
		})
	})
}

// simPoint builds and runs one canonical-workload simulation.
func simPoint(b *testing.B, mode sim.Mode, al float64, objs int, class experiment.TUFClass) sim.Result {
	b.Helper()
	w := experiment.WorkloadSpec{
		NumTasks: 10, NumObjects: objs, AccessesPerJob: objs,
		MeanExec: 500 * rtime.Microsecond, TargetAL: al,
		Class: class, MaxArrivals: 2,
	}
	tasks, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Tasks: tasks, Mode: mode,
		R: experiment.DefaultR, S: experiment.DefaultS,
		OpCost:      experiment.DefaultOpCost,
		Horizon:     rtime.Time(300 * rtime.Millisecond),
		ArrivalKind: uam.KindJittered, Seed: 1, ConservativeRetry: true,
	}
	if mode == sim.LockBased {
		cfg.Scheduler = rua.NewLockBased()
	} else {
		cfg.Scheduler = rua.NewLockFree()
	}
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAURCMRPoint regenerates one cell of Figs 10–13 per iteration
// and reports AUR as a custom metric.
func BenchmarkAURCMRPoint(b *testing.B) {
	cases := []struct {
		name  string
		mode  sim.Mode
		al    float64
		class experiment.TUFClass
	}{
		{"underload/step/lockfree", sim.LockFree, 0.4, experiment.StepTUFs},
		{"underload/step/lockbased", sim.LockBased, 0.4, experiment.StepTUFs},
		{"overload/step/lockfree", sim.LockFree, 1.1, experiment.StepTUFs},
		{"overload/step/lockbased", sim.LockBased, 1.1, experiment.StepTUFs},
		{"overload/hetero/lockfree", sim.LockFree, 1.1, experiment.HeterogeneousTUFs},
		{"overload/hetero/lockbased", sim.LockBased, 1.1, experiment.HeterogeneousTUFs},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var aur, cmr float64
			for i := 0; i < b.N; i++ {
				st := metrics.Analyze(simPoint(b, c.mode, c.al, 10, c.class))
				aur, cmr = st.AUR, st.CMR
			}
			b.ReportMetric(aur, "AUR")
			b.ReportMetric(cmr, "CMR")
		})
	}
}

// BenchmarkFig9CMLPoint probes one load point of the Fig 9 CML search
// for each scheduler variant at 300 µs mean execution time.
func BenchmarkFig9CMLPoint(b *testing.B) {
	for _, mode := range []sim.Mode{sim.LockFree, sim.LockBased} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cmr float64
			for i := 0; i < b.N; i++ {
				w := experiment.WorkloadSpec{
					NumTasks: 10, NumObjects: 10, AccessesPerJob: 4,
					MeanExec: 300 * rtime.Microsecond, TargetAL: 0.8,
					Class: experiment.StepTUFs, MaxArrivals: 1,
				}
				tasks, err := w.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg := sim.Config{
					Tasks: tasks, Mode: mode,
					R: experiment.DefaultR, S: experiment.DefaultS,
					OpCost:      experiment.DefaultOpCost,
					Horizon:     rtime.Time(200 * rtime.Millisecond),
					ArrivalKind: uam.KindJittered, Seed: 1, ConservativeRetry: true,
				}
				if mode == sim.LockBased {
					cfg.Scheduler = rua.NewLockBased()
				} else {
					cfg.Scheduler = rua.NewLockFree()
				}
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cmr = metrics.Analyze(res).CMR
			}
			b.ReportMetric(cmr, "CMR@0.8")
		})
	}
}

// BenchmarkFig14LoadPoint regenerates one load point of Fig 14.
func BenchmarkFig14LoadPoint(b *testing.B) {
	for _, mode := range []sim.Mode{sim.LockFree, sim.LockBased} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var aur float64
			for i := 0; i < b.N; i++ {
				st := metrics.Analyze(simPoint(b, mode, 0.9, 5, experiment.HeterogeneousTUFs))
				aur = st.AUR
			}
			b.ReportMetric(aur, "AUR@0.9")
		})
	}
}

// BenchmarkRUASchedulePass measures one Select pass over n jobs with
// O(n)-deep dependency chains — the wall-clock side of the §3.6 / §5
// cost comparison (charged-op counts are in `rtsim costs`).
func BenchmarkRUASchedulePass(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		wLB, wLF := experiment.CostWorld(n)
		b.Run(fmt.Sprintf("lockbased/n=%d", n), func(b *testing.B) {
			s := rua.NewLockBased()
			s.Select(wLB) // warm the scratch to steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Select(wLB)
			}
		})
		b.Run(fmt.Sprintf("lockfree/n=%d", n), func(b *testing.B) {
			s := rua.NewLockFree()
			s.Select(wLF) // warm the scratch to steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Select(wLF)
			}
		})
	}
}

// BenchmarkRetryBound measures the Theorem 2 closed-form evaluation.
func BenchmarkRetryBound(b *testing.B) {
	w := experiment.WorkloadSpec{
		NumTasks: 50, NumObjects: 10, AccessesPerJob: 4,
		MeanExec: 500 * rtime.Microsecond, TargetAL: 0.8,
		Class: experiment.StepTUFs, MaxArrivals: 3,
	}
	tasks, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RetryBound(i%len(tasks), tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm2Validation runs the full empirical Theorem 2 check.
func BenchmarkThm2Validation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Thm2(experiment.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSojournAnalysis measures the Theorem 3 input assembly and
// threshold evaluation across a task set.
func BenchmarkSojournAnalysis(b *testing.B) {
	w := experiment.WorkloadSpec{
		NumTasks: 20, NumObjects: 5, AccessesPerJob: 6,
		MeanExec: 400 * rtime.Microsecond, TargetAL: 0.5,
		Class: experiment.StepTUFs, MaxArrivals: 2,
	}
	tasks, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := analysis.InputsFor(i%len(tasks), tasks, experiment.DefaultR, experiment.DefaultS)
		if err != nil {
			b.Fatal(err)
		}
		_ = in.ExactConditionHolds()
		_ = in.SojournAdvantage()
	}
}

// BenchmarkUAMGenerate measures arrival-trace generation and validation.
func BenchmarkUAMGenerate(b *testing.B) {
	spec := uam.Spec{L: 1, A: 3, W: 500}
	for i := 0; i < b.N; i++ {
		g, err := uam.NewGenerator(spec, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		tr := g.Generate(uam.KindJittered, 100_000)
		if err := uam.CheckTrace(spec, tr, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (events are the
// unit of work: arrivals + completions + context switches).
func BenchmarkEngineThroughput(b *testing.B) {
	for _, mode := range []sim.Mode{sim.LockFree, sim.LockBased} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				res := simPoint(b, mode, 0.7, 5, experiment.StepTUFs)
				events = res.SchedInvocations + res.CtxSwitches
			}
			b.ReportMetric(float64(events), "events/run")
		})
	}
}

// BenchmarkGlobalMultiprocessor measures global-engine throughput per CPU count —
// the wall-clock cost of the §7 global-scheduling extension.
func BenchmarkGlobalMultiprocessor(b *testing.B) {
	for _, cpus := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cpus=%d", cpus), func(b *testing.B) {
			w := experiment.WorkloadSpec{
				NumTasks: 12, NumObjects: 6, AccessesPerJob: 2,
				MeanExec: 500 * rtime.Microsecond, TargetAL: 2.0,
				Class: experiment.StepTUFs, MaxArrivals: 2,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tasks, err := w.Build()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunGlobal(sim.Config{
					Tasks: tasks, Scheduler: rua.NewLockFree(),
					Mode: sim.LockFree, R: experiment.DefaultR, S: experiment.DefaultS,
					Horizon:     rtime.Time(100 * rtime.Millisecond),
					ArrivalKind: uam.KindJittered, Seed: 1,
				}, cpus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSweep measures the parallel experiment engine: the
// same multi-seed AUR/CMR sweep (one cell of Figs 10–13 at paper-scale
// horizons) on 1, 2, and NumCPU workers. Tables are byte-identical for
// every worker count (see TestParallelDeterminism); only wall clock may
// change. Compare ns/op across the sub-benchmarks for the speedup.
func BenchmarkParallelSweep(b *testing.B) {
	jobCounts := []int{1, 2, runtime.NumCPU()}
	if runtime.NumCPU() <= 2 {
		jobCounts = jobCounts[:2]
	}
	for _, jobs := range jobCounts {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			p := experiment.Profile{
				Name:        "bench",
				HorizonMult: 120,
				Seeds:       []int64{1, 2, 3, 4, 5, 6, 7, 8},
				Jobs:        jobs,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.AURCMR(p, "bench-sweep", experiment.StepTUFs, 1.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
