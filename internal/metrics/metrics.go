// Package metrics computes the evaluation quantities of the paper's §6:
// accrued utility ratio (AUR), critical-time-meet ratio (CMR), the
// approximate load AL = Σ u_i/C_i, and the critical-time-miss load (CML)
// — the load after which a scheduler configuration begins to miss
// critical times — plus mean/95 % confidence-interval statistics for the
// error bars on every figure.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/rtime"
	"repro/internal/sim"
	"repro/internal/task"
)

// ErrInput reports unusable inputs.
var ErrInput = errors.New("metrics: invalid input")

// RunStats summarizes one simulation result.
type RunStats struct {
	Released  int64 // jobs whose critical time fell inside the horizon
	Completed int64
	Met       int64 // completed before their critical times
	Aborted   int64

	AUR float64 // accrued utility / max possible utility of released jobs
	CMR float64 // met / released

	MeanSojourn rtime.Duration // over completed jobs
	MaxSojourn  rtime.Duration
	Retries     int64
	Blockings   int64
}

// Analyze digests a simulation result from its per-job sums
// (sim.Result.Sums). Only jobs whose critical time lies within the
// horizon are counted — jobs released near the end whose outcome the
// simulation could not observe would otherwise bias AUR and CMR
// downward.
func Analyze(r sim.Result) RunStats {
	s := r.Sums
	st := RunStats{
		Released: s.Released, Completed: s.Completed, Met: s.Met, Aborted: s.Aborted,
		MaxSojourn: s.MaxSojourn, Retries: s.Retries, Blockings: s.Blockings,
	}
	if s.MaxUtility > 0 {
		st.AUR = s.AccruedUtility / s.MaxUtility
	}
	if st.Released > 0 {
		st.CMR = float64(st.Met) / float64(st.Released)
	}
	if st.Completed > 0 {
		st.MeanSojourn = s.SojournSum / rtime.Duration(st.Completed)
	}
	return st
}

// TaskStats is the per-task slice of a run's outcome.
type TaskStats struct {
	TaskID    int
	Name      string
	Released  int64
	Completed int64
	Met       int64
	Aborted   int64
	AUR       float64
	CMR       float64
	Retries   int64
	Blockings int64
}

// PerTask digests a simulation result task by task, using the same
// horizon-censoring rule as Analyze. Results are ordered by task id.
// It reads Result.Jobs, so the run must keep its jobs (KeepJobs).
func PerTask(r sim.Result) []TaskStats {
	acc := map[int]*TaskStats{}
	maxU := map[int]float64{}
	gotU := map[int]float64{}
	var ids []int
	for _, j := range r.Jobs {
		st := acc[j.Task.ID]
		if st == nil {
			st = &TaskStats{TaskID: j.Task.ID, Name: j.Task.Name}
			acc[j.Task.ID] = st
			ids = append(ids, j.Task.ID)
		}
		st.Retries += j.Retries
		st.Blockings += j.Blockings
		if j.AbsoluteCriticalTime() > r.Horizon {
			continue
		}
		st.Released++
		maxU[j.Task.ID] += j.Task.TUF.MaxUtility()
		switch j.State {
		case task.Completed:
			st.Completed++
			gotU[j.Task.ID] += j.AccruedUtility()
			if j.MetCriticalTime() {
				st.Met++
			}
		case task.Aborted, task.Aborting:
			st.Aborted++
		}
	}
	sort.Ints(ids)
	out := make([]TaskStats, 0, len(ids))
	for _, id := range ids {
		st := acc[id]
		if maxU[id] > 0 {
			st.AUR = gotU[id] / maxU[id]
		}
		if st.Released > 0 {
			st.CMR = float64(st.Met) / float64(st.Released)
		}
		out = append(out, *st)
	}
	return out
}

// ApproximateLoad returns AL = Σ u_i/C_i (§6.1): task compute time
// excluding object access time over the critical time. This matches the
// paper's definition, which deliberately excludes access costs so that an
// ideal (zero-cost) object implementation has CML 1.0.
func ApproximateLoad(tasks []*task.Task) float64 {
	al := 0.0
	for _, t := range tasks {
		al += float64(t.ComputeTime()) / float64(t.CriticalTime())
	}
	return al
}

// UAMLoad returns the long-run expected processor demand of the task set
// including arrival rates: Σ rate_i · u_i, where rate is the midpoint of
// the UAM band. Useful when sizing workloads to a target utilization.
func UAMLoad(tasks []*task.Task) float64 {
	l := 0.0
	for _, t := range tasks {
		l += t.Arrival.MeanRate() * float64(t.ComputeTime())
	}
	return l
}

// Sample is a mean ± 95 % confidence interval over repeated measurements,
// the error bars of the paper's figures.
type Sample struct {
	N    int
	Mean float64
	CI95 float64
}

// Summarize computes mean and 95 % CI (normal approximation, as is
// conventional for ≥ 30 samples; for smaller n it is mildly optimistic,
// matching typical systems-paper practice).
func Summarize(xs []float64) Sample {
	n := len(xs)
	if n == 0 {
		return Sample{}
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n == 1 {
		return Sample{N: 1, Mean: mean}
	}
	varsum := 0.0
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	sd := math.Sqrt(varsum / float64(n-1))
	return Sample{N: n, Mean: mean, CI95: 1.96 * sd / math.Sqrt(float64(n))}
}

// String renders "mean ± ci".
func (s Sample) String() string {
	return fmt.Sprintf("%.4f ± %.4f", s.Mean, s.CI95)
}

// CMLConfig drives a critical-time-miss-load search (§6.1): run the given
// builder at increasing loads and report the highest load at which the
// scheduler still misses nothing.
type CMLConfig struct {
	// Build constructs a runnable simulation at approximate load al.
	Build func(al float64) (sim.Config, error)
	// Loads is the ascending sweep grid (e.g. 0.05 … 1.20).
	Loads []float64
	// MissTolerance is the CMR slack: a load "misses" when CMR drops
	// below 1 − tolerance. Zero means any miss counts.
	MissTolerance float64
}

// FindCML runs the sweep and returns the critical-time-miss load: the
// largest load in the grid with no misses (0 if even the first load
// misses). The per-load CMRs are returned for reporting.
func FindCML(cfg CMLConfig) (cml float64, cmrs []float64, err error) {
	if cfg.Build == nil || len(cfg.Loads) == 0 {
		return 0, nil, fmt.Errorf("%w: CML search needs Build and Loads", ErrInput)
	}
	if !sort.Float64sAreSorted(cfg.Loads) {
		return 0, nil, fmt.Errorf("%w: loads must be ascending", ErrInput)
	}
	cmrs = make([]float64, len(cfg.Loads))
	cml = 0
	for i, al := range cfg.Loads {
		sc, err := cfg.Build(al)
		if err != nil {
			return 0, nil, err
		}
		res, err := sim.Run(sc)
		if err != nil {
			return 0, nil, err
		}
		st := Analyze(res)
		cmrs[i] = st.CMR
		if st.Released == 0 {
			continue
		}
		if st.CMR >= 1-cfg.MissTolerance {
			cml = al
		}
	}
	return cml, cmrs, nil
}
