package experiment

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/metrics/series"
	"repro/internal/multi"
	"repro/internal/obs"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/trace/check"
	"repro/internal/trace/span"
	"repro/internal/uam"
)

// Trace-run simulator selectors (cmd/rtsim -trace-sim).
const (
	TraceSimUni    = "uni"    // single-processor engine (internal/sim)
	TraceSimMulti  = "multi"  // partitioned multiprocessor (internal/multi)
	TraceSimGlobal = "global" // global multiprocessor (sim.RunGlobal)
)

// TraceCPUs is the processor count traced multi/global runs use.
const TraceCPUs = 2

// TraceWorkloadSpec is the canonical workload traced runs and the
// bound-check suite execute: the Theorem 2 validation shape (six tasks,
// three shared objects, four accesses per job, bursty UAM) at full
// load, where retries and preemptions are plentiful enough for the
// timeline to be interesting.
func TraceWorkloadSpec() WorkloadSpec {
	return WorkloadSpec{
		NumTasks:       ValidationTasks,
		NumObjects:     3,
		AccessesPerJob: 4,
		MeanExec:       300 * rtime.Microsecond,
		TargetAL:       1.0,
		Class:          StepTUFs,
		MaxArrivals:    2,
	}
}

// buildTraceTasks materializes the trace workload and splits it into
// two disjoint shared-object groups: the second half of the task set
// has its object ids shifted past the first half's. One fully-connected
// component would be placed whole on a single processor by the
// object-aware partitioner, collapsing the "multi" trace runs into the
// uniprocessor ones; two components give the partitioned simulator a
// real two-CPU timeline to trace.
func buildTraceTasks() ([]*task.Task, error) {
	spec := TraceWorkloadSpec()
	tasks, err := spec.Build()
	if err != nil {
		return nil, err
	}
	for i := spec.NumTasks / 2; i < len(tasks); i++ {
		for k := range tasks[i].Segments {
			if tasks[i].Segments[k].Kind != task.Compute {
				tasks[i].Segments[k].Object += spec.NumObjects
			}
		}
	}
	return tasks, nil
}

// TraceSetup materializes the canonical trace workload and its horizon
// under p — everything an online consumer (internal/obs) needs to
// configure itself before the engine runs.
func TraceSetup(p Profile) ([]*task.Task, rtime.Time, error) {
	tasks, err := buildTraceTasks()
	if err != nil {
		return nil, 0, err
	}
	return tasks, horizonFor(tasks, p), nil
}

// traceSims and traceModes are the simulator and synchronization axes
// of the traced grids (BuildReport, CheckBounds): modes lock-free, then
// lock-based.
var (
	traceSims  = []string{TraceSimUni, TraceSimMulti, TraceSimGlobal}
	traceModes = []bool{false, true}
)

// runEngine runs cfg on the named engine — uniprocessor, partitioned or
// global, the last two on cpus processors — scheduled by fresh RUA
// instances for cfg.Mode; shed selects the admission-control variant of
// lock-free RUA. The returned func digests the finished run on demand,
// so callers that only stream its events pay nothing for it.
func runEngine(engine string, cpus int, cfg sim.Config, shed bool) (func() metrics.RunStats, error) {
	newRUA := func() sched.Scheduler {
		if cfg.Mode == sim.LockBased {
			return rua.NewLockBased()
		}
		if shed {
			return rua.NewLockFree().WithDegradation()
		}
		return rua.NewLockFree()
	}
	switch engine {
	case TraceSimUni:
		cfg.Scheduler = newRUA()
		res, err := sim.Run(cfg)
		return func() metrics.RunStats { return metrics.Analyze(res) }, err
	case TraceSimMulti:
		res, err := multi.Run(cfg, cpus, newRUA)
		return func() metrics.RunStats { return res.Stats }, err
	case TraceSimGlobal:
		// Commit-time validation is the global engine's only retry accounting.
		cfg.Scheduler, cfg.ConservativeRetry = newRUA(), false
		res, err := sim.RunGlobal(cfg, cpus)
		return func() metrics.RunStats { return metrics.Analyze(res) }, err
	}
	return nil, fmt.Errorf("experiment: unknown trace simulator %q (want %s|%s|%s)",
		engine, TraceSimUni, TraceSimMulti, TraceSimGlobal)
}

// StreamTrace executes one simulation of the canonical trace workload
// (tasks and horizon from TraceSetup) feeding every event to observer
// as it happens — nothing is buffered. The event stream is
// nondecreasing in Event.At on every simulator, so online sinks
// (internal/obs) fold it directly.
func StreamTrace(p Profile, simName string, lockBased bool, seed int64, tasks []*task.Task, horizon rtime.Time, observer func(trace.Event)) error {
	cfg := baseConfig(tasks, horizon, seed)
	cfg.Mode = sim.LockFree
	if lockBased {
		cfg.Mode = sim.LockBased
	}
	cfg.Fault, cfg.Stoch, cfg.Observer = p.Fault, p.Stoch, observer
	// Under an active fault plan, lock-free runs use the
	// admission-control RUA variant so overload shedding shows up in the
	// traced timeline. With a nil/zero plan every configuration is
	// identical to the fault-free path, event for event.
	_, err := runEngine(simName, TraceCPUs, cfg, p.Fault.Active())
	return err
}

// foldTrace runs one simulation of the canonical trace workload through
// an online obs.Pipeline and returns the fold: per-operation retry
// telemetry always, the Theorem 2/3 bound check on the uni and multi
// engines, and the virtual-time series when withSeries is set. onSpan
// receives every retired job span (valid only during the call). No
// event is buffered: memory is O(series windows + live jobs).
func foldTrace(p Profile, simName string, lockBased bool, seed int64, withSeries bool, onSpan func(*span.JobSpan)) (*obs.Results, error) {
	tasks, horizon, err := TraceSetup(p)
	if err != nil {
		return nil, err
	}
	cpus := 1
	if simName != TraceSimUni {
		cpus = TraceCPUs
	}
	cfg := obs.Config{Horizon: horizon, CPUs: cpus, OnSpan: onSpan}
	// The global engine's commit-time validation retries fall outside
	// Theorem 2's model (see sim.NewGlobal), so its runs carry no bound
	// check.
	if simName != TraceSimGlobal {
		ck := boundCheckConfig(p, lockBased, tasks)
		cfg.CheckTasks, cfg.Check = tasks, &ck
	}
	if withSeries {
		cfg.SeriesWindow = series.WindowFor(horizon, 0)
	}
	pipe, err := obs.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if err := StreamTrace(p, simName, lockBased, seed, tasks, horizon, pipe.Observer()); err != nil {
		return nil, err
	}
	return pipe.Finish()
}

// boundCheckConfig is the Theorem 2/3 check configuration of the
// canonical trace workload. With an active fault plan, bounds are
// re-checked against the plan's inflated arrival curves and faults
// outside the arrival model mark their theorem's violations expected.
func boundCheckConfig(p Profile, lockBased bool, tasks []*task.Task) check.Config {
	cfg := check.Config{
		Theorem2: true, Theorem3: true,
		LockBased: lockBased, R: DefaultR, S: DefaultS,
	}
	if p.Fault.Active() {
		specs := make([]uam.Spec, len(tasks))
		for i, tk := range tasks {
			specs[i] = p.Fault.EffectiveSpec(tk.Arrival)
		}
		cfg.EffectiveSpecs = specs
		cfg.ExpectedT2 = p.Fault.ExceedsRetryModel()
		cfg.ExpectedT3 = p.Fault.ExceedsSojournModel()
	}
	return cfg
}

// CheckBounds runs the bound-check suite: every profile seed ×
// {uniprocessor, partitioned} × {lock-free, lock-based}, folded online
// (foldTrace) and checked span by span against the Theorem 2 retry bound
// and the Theorem 3 worst-case sojourn composition. The global engine is
// deliberately absent: its commit-time validation retries fall outside
// Theorem 2's uniprocessor model (see sim.NewGlobal), so it has no
// bound to check against.
//
// It returns the rendered report (byte-identical for any jobs value —
// cells fan out on runner.Grid and merge by index) and whether every
// bound held.
func CheckBounds(p Profile) (string, bool, error) {
	sims := traceSims[:2] // uni, multi: the engines with Theorem 2/3 bounds
	type outcome struct {
		jobs, completed int
		retries         int64
		report          *check.Report
	}
	outs, err := runner.Grid(p.Jobs, len(sims), len(traceModes), len(p.Seeds), func(si, mi, rep int) (outcome, error) {
		var o outcome
		res, err := foldTrace(p, sims[si], traceModes[mi], p.Seeds[rep], false, func(s *span.JobSpan) {
			o.jobs++
			o.retries += s.Retries
			if s.Outcome == span.Completed {
				o.completed++
			}
		})
		if err != nil {
			return outcome{}, err
		}
		o.report = res.Check
		return o, nil
	})
	if err != nil {
		return "", false, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "bound-check suite: workload=thm2-trace profile=%s sims=uni,multi modes=lock-free,lock-based\n", p.Name)
	fmt.Fprintf(&b, "%-7s %-11s %6s %6s %6s %8s %6s\n", "sim", "mode", "seed", "jobs", "done", "retries", "viol")
	ok := true
	expected := 0
	for si, simName := range sims {
		for mi, lockBased := range traceModes {
			for rep, o := range outs[si][mi] {
				fmt.Fprintf(&b, "%-7s %-11s %6d %6d %6d %8d %6d\n",
					simName, modeLabel(lockBased), p.Seeds[rep], o.jobs, o.completed, o.retries, len(o.report.Violations))
				expected += len(o.report.Violations) - o.report.Unexpected()
				if !o.report.OK() {
					ok = false
				}
				for _, v := range o.report.Violations {
					if !v.Expected {
						fmt.Fprintf(&b, "  VIOLATION %s\n", v)
					}
				}
			}
		}
	}
	switch {
	case ok && expected == 0:
		b.WriteString("all Theorem 2/3 bounds hold\n")
	case ok:
		fmt.Fprintf(&b, "all Theorem 2/3 bounds hold (%d expected violation(s) from fault injection)\n", expected)
	default:
		b.WriteString("BOUND VIOLATIONS FOUND\n")
	}
	return b.String(), ok, nil
}

// modeLabel names a synchronization mode in rendered output.
func modeLabel(lockBased bool) string {
	if lockBased {
		return "lock-based"
	}
	return "lock-free"
}
