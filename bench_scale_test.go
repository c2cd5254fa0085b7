// Scale benchmarks: the RUA pass and the uniprocessor engine measured at
// task-set sizes n ∈ 10²–10⁴ on the clustered scale workload. The Select
// rows put all n jobs in one pass; real runs do not (the live set stays
// near the load), so those rows size a synthetic worst case, where the
// tentative schedule's O(n) slice operations dominate.
//
//	BenchmarkScaleSelect        → one RUA pass over n live jobs (0 allocs/op
//	                              steady state; warmed scratch)
//	BenchmarkScaleSelectTopK    → SelectTopKAbort (the global engine's per-event call)
//	BenchmarkScaleEngineRun     → full uniprocessor event loop, 3 windows
//	BenchmarkOverloadEngineRun  → 10 tasks at AL 1.2 for 400 windows, both
//	                              modes, observed by an obs.Pipeline
//	BenchmarkBuildMetricsQuick  → the quick -metrics digest at Jobs 1, as
//	                              rtsimd's warm-up request builds it
//	BenchmarkBuildReportSetQuick → a served fig10+thm2 report: canonical
//	                              runs plus page and CSV rendering
//	BenchmarkBuildTracePerfettoQuick → a served Perfetto trace with a
//	                              flight recorder: one run plus export
//
// The timing wheel's before/after pair lives next to it in
// internal/rtime/wheel (BenchmarkWheelChurn vs BenchmarkRefChurn).
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/artifact"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/metrics/series"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace/span"
	"repro/internal/uam"
)

var scaleBenchNs = []int{100, 1000, 10_000}

// scaleWorld builds a live set of n ready jobs over the clustered scale
// workload — the world one Select pass sees.
func scaleWorld(b *testing.B, n int, lockBased bool) sched.World {
	tasks, err := experiment.ScaleWorkload(n, 0.4, experiment.StepTUFs)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]*task.Job, n)
	for i, tk := range tasks {
		jobs[i] = task.NewJob(tk, 0, rtime.Time(i))
		jobs[i].EngineSlot = int32(i)
	}
	return sched.World{Now: 0, Jobs: jobs, Res: resource.NewMap(), Acc: 10, LockBased: lockBased}
}

// BenchmarkScaleSelect measures one full RUA scheduling pass over n live
// jobs. After the first warm-up pass grows the scratch arenas, every
// iteration must run allocation-free (the rua package enforces the same
// property as a hard test, TestSelectSteadyStateNoAlloc).
func BenchmarkScaleSelect(b *testing.B) {
	for _, n := range scaleBenchNs {
		for _, mode := range []string{"lockfree", "lockbased"} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				w := scaleWorld(b, n, mode == "lockbased")
				s := rua.NewLockFree()
				if mode == "lockbased" {
					s = rua.NewLockBased()
				}
				s.Select(w) // warm the scratch to steady state
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Select(w)
				}
			})
		}
	}
}

// BenchmarkScaleSelectTopK measures the global engine's per-event call:
// a full pass plus extraction of the CPUs-deep ranked prefix.
func BenchmarkScaleSelectTopK(b *testing.B) {
	const k = 4
	for _, n := range scaleBenchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := scaleWorld(b, n, false)
			s := rua.NewLockFree()
			s.SelectTopKAbort(w, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SelectTopKAbort(w, k)
			}
		})
	}
}

// BenchmarkScaleEngineRun drives the whole uniprocessor event loop on
// the phased scale workload for three arrival windows per task — the
// timing wheel, live-set bookkeeping, and scheduler passes together.
// Events scale linearly with n; per-event cost must stay flat.
func BenchmarkScaleEngineRun(b *testing.B) {
	for _, n := range scaleBenchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tasks, err := experiment.ScaleWorkload(n, 0.4, experiment.StepTUFs)
			if err != nil {
				b.Fatal(err)
			}
			var maxC rtime.Duration
			for _, tk := range tasks {
				if c := tk.CriticalTime(); c > maxC {
					maxC = c
				}
			}
			horizon := rtime.Time(3 * int64(maxC))
			b.ReportAllocs()
			b.ResetTimer()
			var released int64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Tasks: task.CloneAll(tasks), Scheduler: rua.NewLockFree(), Mode: sim.LockFree,
					R: experiment.DefaultR, S: experiment.DefaultS,
					Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: 1,
					ConservativeRetry: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				released = metrics.Analyze(res).Released
			}
			b.ReportMetric(float64(released), "jobs/run")
		})
	}
}

// BenchmarkOverloadEngineRun is the in-repo twin of the layer
// benchmark's overload workload: ten paper-sized tasks at AL 1.2 for
// 400 maximum critical times, run once lock-free and once lock-based
// under RUA with an obs.Pipeline (series windows, a 4096-event flight
// ring, span folding) attached. RUA passes and the observer fold do
// the work; a task has about a_i jobs live at a time, so what a run
// allocates per arrival shows in B/op.
func BenchmarkOverloadEngineRun(b *testing.B) {
	tasks, err := experiment.WorkloadSpec{
		NumTasks: experiment.PaperTasks, NumObjects: 10, AccessesPerJob: 4,
		MeanExec: 500 * rtime.Microsecond, TargetAL: 1.2,
		Class: experiment.StepTUFs, MaxArrivals: 2, SpreadPhases: true,
	}.Build()
	if err != nil {
		b.Fatal(err)
	}
	var maxC rtime.Duration
	for _, tk := range tasks {
		maxC = max(maxC, tk.CriticalTime())
	}
	horizon := rtime.Time(400 * int64(maxC))
	b.ReportAllocs()
	b.ResetTimer()
	var released, spans int64
	for i := 0; i < b.N; i++ {
		released, spans = 0, 0
		for _, mode := range []sim.Mode{sim.LockFree, sim.LockBased} {
			s := rua.NewLockFree()
			if mode == sim.LockBased {
				s = rua.NewLockBased()
			}
			pipe, err := obs.NewPipeline(obs.Config{
				Horizon: horizon, CPUs: 1,
				SeriesWindow: series.WindowFor(horizon, 0),
				Flight:       4096,
				OnSpan:       func(*span.JobSpan) { spans++ },
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Tasks: task.CloneAll(tasks), Scheduler: s, Mode: mode,
				R: experiment.DefaultR, S: experiment.DefaultS, OpCost: experiment.DefaultOpCost,
				Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: 1,
				ConservativeRetry: true, Observer: pipe.Observe,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pipe.Finish(); err != nil {
				b.Fatal(err)
			}
			released += res.Arrivals
		}
	}
	b.ReportMetric(float64(released), "jobs/run")
	b.ReportMetric(float64(spans), "spans/run")
}

// BenchmarkBuildMetricsQuick is the in-repo twin of the layer
// benchmark's serve setup: rtsimd answers its warm-up request
// ({"metrics":true}) with artifact.BuildMetrics on the quick profile,
// one run at a time (Jobs 1). Every simulator × mode folds the
// canonical workload, so it is mostly small engine runs, partitioned
// ones included, and what their setup allocates shows in B/op.
func BenchmarkBuildMetricsQuick(b *testing.B) {
	p := experiment.Quick
	p.Jobs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := artifact.BuildMetrics(p, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildReportSetQuick builds the report set of a served
// {"stoch":"geo","report":{"figs":["fig10","thm2"]}} request: the
// canonical runs and every CSV and report.html, with the figure tables
// served from a warm FigMemo as the daemon's are. out-B/op is the
// rendered artifact bytes.
func BenchmarkBuildReportSetQuick(b *testing.B) {
	p := experiment.Quick
	p.Jobs = 1
	p.Stoch = stoch.Geo()
	p.FigMemo = new(experiment.FigMemo)
	figs := []string{"fig10", "thm2"}
	if _, err := artifact.BuildReportSet(p, figs, false); err != nil { // warms the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var out int
	for i := 0; i < b.N; i++ {
		set, err := artifact.BuildReportSet(p, figs, false)
		if err != nil {
			b.Fatal(err)
		}
		out = 0
		for _, f := range set.Files {
			out += len(f.Data)
		}
	}
	b.ReportMetric(float64(out), "out-B/op")
}

// BenchmarkBuildTracePerfettoQuick builds the trace of a served
// {"faults":"light","trace":{"format":"perfetto","flight":256}}
// request: one uniprocessor lock-free run, its Perfetto export and the
// flight dump. out-B/op is the trace plus dump bytes.
func BenchmarkBuildTracePerfettoQuick(b *testing.B) {
	p := experiment.Quick
	p.Jobs = 1
	p.Fault = fault.Light()
	o := artifact.TraceOptions{
		Sim: experiment.TraceSimUni, Mode: artifact.ModeLockFree,
		Format: artifact.FormatPerfetto, Flight: 256,
	}
	b.ReportAllocs()
	var out int
	for i := 0; i < b.N; i++ {
		tr, err := artifact.BuildTrace(p, o)
		if err != nil {
			b.Fatal(err)
		}
		out = len(tr.Data) + len(tr.FlightDump)
	}
	b.ReportMetric(float64(out), "out-B/op")
}
