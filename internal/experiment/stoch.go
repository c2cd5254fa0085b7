package experiment

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/metrics/ops"
	"repro/internal/metrics/predict"
	"repro/internal/metrics/series"
	"repro/internal/obs"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/task"
)

// stochDists is the sweep's scheduler axis: the deterministic baseline
// and both stochastic step distributions, fixed plan seed so every cell
// is a pure function of its grid slot.
func stochDists() []struct {
	name string
	plan *stoch.Plan
} {
	uni, geo := stoch.Uni(), stoch.Geo()
	uni.Seed, geo.Seed = 1, 1
	return []struct {
		name string
		plan *stoch.Plan
	}{
		{"off", nil},
		{"uni", uni},
		{"geo", geo},
	}
}

// stochModes is the synchronization axis: the paper's lock-free and
// lock-based disciplines plus a wait-free stub — the same workload with
// every access remapped to a private per-task object, so operations of
// DIFFERENT tasks never conflict. The stub is the predictor's
// calibration anchor: with x ≈ 0 the fitted model collapses to its
// intercept and throughput should track busy time ("practically
// wait-free" made nearly literal — a residual conflict remains when a
// preempted job's successor from the same task commits to their shared
// private object, which random preemption makes slightly more likely).
var stochModes = []string{"lockfree", "lockbased", "waitfree"}

// privatizeObjects clones the workload and gives task i exclusive
// objects, eliminating all sharing while preserving every cost (same
// segment shapes, same access lengths).
func privatizeObjects(template []*task.Task, numObjects int) []*task.Task {
	tasks := task.CloneAll(template)
	for i, t := range tasks {
		for k := range t.Segments {
			if t.Segments[k].Kind != task.Compute {
				t.Segments[k].Object = numObjects + i
			}
		}
	}
	return tasks
}

// StochSweep crosses the stochastic-scheduler distributions with the
// synchronization disciplines and reports, per scenario, accrued
// utility, observed vs predicted throughput (internal/metrics/predict
// fitted per run), the predictor's relative error, and the
// per-operation retry tail (p99/p999 attempts, merged exactly across
// seeds). It answers two questions the deterministic engine cannot:
// does the lock-free discipline's utility survive adversarial random
// preemption (the paper's practical-wait-freedom claim), and does the
// conflict-based throughput model keep tracking the observed commit
// rate as scheduling noise widens the contention window?
//
// Determinism: stochastic decisions are pure hashes of (plan seed,
// cpu, tick); cells fan out on runner.Grid and merge by index, so the
// table is byte-identical for any Jobs value.
func StochSweep(p Profile) ([]*Table, error) {
	t := &Table{
		ID:    "stoch",
		Title: "stochastic-scheduler sweep: utility and predicted vs observed throughput",
		Note: fmt.Sprintf("uniprocessor engine; quantum=%v pickp=%.2f plan seed 1; r=%v s=%v; mean ± 95%% CI over %d seeds; tails merged exactly across seeds",
			stoch.DefaultQuantum, stoch.DefaultPickProb, DefaultR, DefaultS, len(p.Seeds)),
		Columns: []string{"dist", "mode", "AUR", "obs_tput_kcommits", "pred_tput_kcommits",
			"pred_rel_err", "fail_rate", "att_p99", "att_p999", "preempts"},
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
	dists := stochDists()

	type cell struct {
		stats    metrics.RunStats
		commits  int64
		predSum  float64
		relErr   float64
		ops      *ops.Set
		preempts int64
	}
	cells, err := runner.Grid(p.Jobs, len(dists), len(stochModes), len(p.Seeds), func(di, mi, rep int) (cell, error) {
		cfg := baseConfig(task.CloneAll(template), horizon, p.Seeds[rep])
		cfg.Scheduler, cfg.Mode = rua.NewLockFree(), sim.LockFree
		switch stochModes[mi] {
		case "lockbased":
			cfg.Scheduler, cfg.Mode = rua.NewLockBased(), sim.LockBased
		case "waitfree":
			cfg.Tasks = privatizeObjects(template, w.NumObjects)
		}
		pipe, err := obs.NewPipeline(obs.Config{
			Horizon: horizon, CPUs: 1, SeriesWindow: series.WindowFor(horizon, 0),
		})
		if err != nil {
			return cell{}, err
		}
		// Conflict-driven retries (not the conservative any-preemption
		// rule): the wait-free stub must measure exactly zero failures,
		// and the predictor's x-axis should count real conflicts.
		cfg.ConservativeRetry, cfg.Stoch, cfg.Observer = false, dists[di].plan, pipe.Observer()
		res, err := sim.Run(cfg)
		if err != nil {
			return cell{}, err
		}
		fold, err := pipe.Finish()
		if err != nil {
			return cell{}, err
		}
		overlay := predict.FromSeries(fold.Series)
		c := cell{
			stats:    metrics.Analyze(res),
			relErr:   overlay.RelErr,
			ops:      fold.Ops,
			preempts: res.CtxSwitches,
		}
		for _, pt := range overlay.Points {
			c.commits += pt.Observed
			c.predSum += pt.Predicted
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for di := range dists {
		for mi, mode := range stochModes {
			var stats []metrics.RunStats
			var relErrs []float64
			var commits int64
			var predSum float64
			var preempts int64
			merged := &ops.Set{}
			for _, c := range cells[di][mi] {
				stats = append(stats, c.stats)
				relErrs = append(relErrs, c.relErr)
				commits += c.commits
				predSum += c.predSum
				preempts += c.preempts
				if err := merged.Merge(c.ops); err != nil {
					return nil, fmt.Errorf("experiment: stoch merge ops: %w", err)
				}
			}
			tot := merged.Total()
			att := tot.Attempts.Summarize()
			t.AddRow(dists[di].name, mode,
				means(stats, func(s metrics.RunStats) float64 { return s.AUR }).String(),
				fmt.Sprintf("%.3f", float64(commits)/1000),
				fmt.Sprintf("%.3f", predSum/1000),
				metrics.Summarize(relErrs).String(),
				fmt.Sprintf("%.4f", tot.FailureRate()),
				att.P99, att.P999, preempts,
			)
		}
	}
	return []*Table{t}, nil
}
