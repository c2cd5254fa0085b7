package experiment

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uam"
)

// Default access-cost and overhead calibration, chosen to match the
// magnitudes of the paper's Fig 8 on its 500 MHz Pentium-III (s ≈ 5–15
// µs, r ≈ 100–400 µs including RUA's lock-based machinery) and the
// meta-scheduler overhead implied by Fig 9.
const (
	// DefaultS is the lock-free per-access cost s.
	DefaultS = 5 * rtime.Microsecond
	// DefaultR is the lock-based per-access cost r (object operation plus
	// RUA's resource-sharing mechanism).
	DefaultR = 150 * rtime.Microsecond
	// DefaultOpCost is virtual µs charged per scheduler operation.
	DefaultOpCost = 0.02
)

// baseConfig is the calibrated uniprocessor run every experiment starts
// from: the default access costs and scheduler op cost, jittered UAM
// arrivals, and conservative retry accounting (the adversary Theorem 2
// bounds). Sweeps set the scheduler and mode and override only the
// fields they vary, as point and variant edits (runSweep).
func baseConfig(tasks []*task.Task, horizon rtime.Time, seed int64) sim.Config {
	return sim.Config{
		Tasks: tasks, R: DefaultR, S: DefaultS, OpCost: DefaultOpCost,
		Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
		ConservativeRetry: true,
	}
}

// sweepPoint is one point of a sweep: the task template every run of
// the point clones, and an optional edit of each run's config (fault
// intensity, stochastic plan, arrival kind, retry accounting, costs).
type sweepPoint struct {
	tasks []*task.Task
	edit  func(*sim.Config)
}

// specPoints builds the unedited sweep point of spec(x) for each x.
func specPoints[X any](xs []X, spec func(X) WorkloadSpec) ([]sweepPoint, error) {
	points := make([]sweepPoint, len(xs))
	for i, x := range xs {
		tasks, err := spec(x).Build()
		if err != nil {
			return nil, err
		}
		points[i].tasks = tasks
	}
	return points, nil
}

// editPoints is one sweep point per x, all over the same template, each
// edited by edit(cfg, x).
func editPoints[X any](tasks []*task.Task, xs []X, edit func(*sim.Config, X)) []sweepPoint {
	points := make([]sweepPoint, len(xs))
	for i, x := range xs {
		points[i] = sweepPoint{tasks: tasks, edit: func(cfg *sim.Config) { edit(cfg, x) }}
	}
	return points
}

// variant is one column of a sweep: an edit of each run's config,
// typically its scheduler and synchronization mode.
type variant func(*sim.Config)

// The paper's two RUA variants; pairModes is the lock-based vs
// lock-free pair most of its figures contrast, in that order.
var (
	lockBasedRUA variant = func(cfg *sim.Config) { cfg.Scheduler, cfg.Mode = rua.NewLockBased(), sim.LockBased }
	lockFreeRUA  variant = func(cfg *sim.Config) { cfg.Scheduler, cfg.Mode = rua.NewLockFree(), sim.LockFree }
	pairModes            = []variant{lockBasedRUA, lockFreeRUA}
)

// runSweep executes every (point × variant × seed) cell of a sweep on
// the profile's worker pool and returns each cell's result as
// out[point][variant][seed]. A cell's config is baseConfig over a clone
// of the point's template, with the profile's horizon and the seed of
// its grid slot, edited by the point and then by the variant; cell runs
// it (on any engine, under any observer) and measures it.
//
// Determinism: every run clones its template (so an edit may rewrite
// the clone freely, and sharing bugs are structurally impossible) and
// takes its seed from its own grid cell, never from shared RNG state.
// runner.Grid merges by index, so every rendered table is
// byte-identical for any worker count.
func runSweep[T any](p Profile, points []sweepPoint, variants []variant, cell func(cfg sim.Config, pi, vi int) (T, error)) ([][][]T, error) {
	return runner.Grid(p.Jobs, len(points), len(variants), len(p.Seeds), func(pi, vi, rep int) (T, error) {
		pt := points[pi]
		cfg := baseConfig(task.CloneAll(pt.tasks), horizonFor(pt.tasks, p), p.Seeds[rep])
		if pt.edit != nil {
			pt.edit(&cfg)
		}
		variants[vi](&cfg)
		return cell(cfg, pi, vi)
	})
}

// simCell is the sweep cell that runs its config on the uniprocessor
// engine and measures the result.
func simCell[T any](measure func(sim.Result) T) func(sim.Config, int, int) (T, error) {
	return func(cfg sim.Config, _, _ int) (T, error) {
		res, err := sim.Run(cfg)
		if err != nil {
			var zero T
			return zero, err
		}
		return measure(res), nil
	}
}

// lockFree runs in lock-free mode and leaves the scheduler to the
// engine (runEngine).
var lockFree variant = func(cfg *sim.Config) { cfg.Mode = sim.LockFree }

// engineCell is the sweep cell that runs its config on engine over cpus
// processors (see runEngine) and digests the run.
func engineCell(engine string, cpus int, cfg sim.Config) (metrics.RunStats, error) {
	stats, err := runEngine(engine, cpus, cfg, false)
	if err != nil {
		return metrics.RunStats{}, err
	}
	return stats(), nil
}

// aur is the accrued-utility-ratio measure of a run.
func aur(res sim.Result) float64 { return metrics.Analyze(res).AUR }

// summaryRow is a table row: the point's label followed by the
// mean ± CI summary of each variant's per-seed values.
func summaryRow(label any, variants [][]float64) []any {
	row := []any{label}
	for _, xs := range variants {
		row = append(row, metrics.Summarize(xs).String())
	}
	return row
}

// aurCMRCells renders two variants' mean AUR, then their mean CMR, as
// table cells.
func aurCMRCells(a, b []metrics.RunStats) []any {
	aurOf := func(s metrics.RunStats) float64 { return s.AUR }
	cmrOf := func(s metrics.RunStats) float64 { return s.CMR }
	return []any{means(a, aurOf).String(), means(b, aurOf).String(), means(a, cmrOf).String(), means(b, cmrOf).String()}
}

func means(stats []metrics.RunStats, f func(metrics.RunStats) float64) metrics.Sample {
	xs := make([]float64, len(stats))
	for i, st := range stats {
		xs[i] = f(st)
	}
	return metrics.Summarize(xs)
}

// Fig8 regenerates Figure 8: lock-based r and lock-free s effective
// object access times under an increasing number of shared objects
// accessed per job (10 tasks, no nested sections). The measured access
// time spans a job's first arrival at the access boundary through the
// commit, so lock-based numbers absorb blocking and RUA's resource
// machinery while lock-free numbers absorb retries — exactly the two
// quantities the paper's figure contrasts.
func Fig8(p Profile) ([]*Table, error) {
	t := &Table{
		ID:    "fig8",
		Title: "lock-based (r) vs lock-free (s) shared object access time",
		Note: fmt.Sprintf("10 tasks; base costs r=%v s=%v; effective time includes blocking/retries; mean ± 95%% CI over %d seeds",
			DefaultR, DefaultS, len(p.Seeds)),
		Columns: []string{"objects", "r_eff_us", "s_eff_us", "r/s"},
	}
	objSweep := sweepInts(p, 1, 10)
	points, err := specPoints(objSweep, func(objs int) WorkloadSpec {
		return WorkloadSpec{
			NumTasks: PaperTasks, NumObjects: objs, AccessesPerJob: objs,
			MeanExec: 500 * rtime.Microsecond, TargetAL: 0.4,
			Class: StepTUFs, MaxArrivals: 1,
		}
	})
	if err != nil {
		return nil, err
	}
	// eff is a run's measured effective access time, ok whether the run
	// observed any accesses.
	type eff struct {
		v  float64
		ok bool
	}
	cells, err := runSweep(p, points, pairModes, simCell(func(res sim.Result) eff {
		if res.Accesses == 0 {
			return eff{}
		}
		return eff{v: float64(res.AccessTime) / float64(res.Accesses), ok: true}
	}))
	if err != nil {
		return nil, err
	}
	for pi, objs := range objSweep {
		var effs [2][]float64 // pairModes order: r, then s
		for mi, runs := range cells[pi] {
			for _, c := range runs {
				if c.ok {
					effs[mi] = append(effs[mi], c.v)
				}
			}
		}
		rS, sS := metrics.Summarize(effs[0]), metrics.Summarize(effs[1])
		ratio := math.Inf(1)
		if sS.Mean > 0 {
			ratio = rS.Mean / sS.Mean
		}
		t.AddRow(objs, rS.String(), sS.String(), ratio)
	}
	return []*Table{t}, nil
}

// Fig9 regenerates Figure 9: critical-time-miss load (CML) versus average
// job execution time for ideal, lock-free, and lock-based RUA. Ideal RUA
// is the ablation of DESIGN.md §5.1: near-zero object access cost with
// the same scheduling overhead.
func Fig9(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "critical-time-miss load vs average job execution time",
		Note:    "10 tasks, 4 accesses/job over 10 objects; CML = highest load in grid with CMR=1",
		Columns: []string{"exec_us", "cml_ideal", "cml_lockfree", "cml_lockbased"},
	}
	execs := []rtime.Duration{10, 30, 100, 300, 1000, 3000}
	if p.Name == Quick.Name {
		execs = []rtime.Duration{30, 300, 3000}
	}
	loads := loadGrid(p)
	// The variants are ideal RUA (near-zero access cost), lock-free and
	// lock-based RUA.
	variants := []variant{
		func(cfg *sim.Config) { lockFreeRUA(cfg); cfg.S = 1 },
		lockFreeRUA,
		lockBasedRUA,
	}
	// Each (execution-time × variant) cell is an independent CML grid
	// search.
	cmls, err := runner.Grid(p.Jobs, len(execs), len(variants), 1, func(ei, vi, _ int) (float64, error) {
		cml, _, err := metrics.FindCML(metrics.CMLConfig{
			Loads:         loads,
			MissTolerance: 0.001,
			Build: func(al float64) (sim.Config, error) {
				tasks, err := WorkloadSpec{
					NumTasks: PaperTasks, NumObjects: 10, AccessesPerJob: 4,
					MeanExec: execs[ei], TargetAL: al, Class: StepTUFs, MaxArrivals: 1,
				}.Build()
				cfg := baseConfig(tasks, horizonFor(tasks, p), p.Seeds[0])
				variants[vi](&cfg)
				return cfg, err
			},
		})
		return cml, err
	})
	if err != nil {
		return nil, err
	}
	for ei, ex := range execs {
		c := cmls[ei]
		t.AddRow(int64(ex), c[0][0], c[1][0], c[2][0])
	}
	return []*Table{t}, nil
}

// AURCMR regenerates Figures 10–13: AUR and CMR of lock-based vs
// lock-free RUA under an increasing number of shared objects, at the
// given approximate load and TUF class.
func AURCMR(p Profile, id string, class TUFClass, al float64) ([]*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("AUR/CMR, %s TUFs, AL≈%.1f, increasing shared objects", class, al),
		Note:    fmt.Sprintf("10 tasks; r=%v s=%v; mean ± 95%% CI over %d seeds", DefaultR, DefaultS, len(p.Seeds)),
		Columns: []string{"objects", "AUR_lockbased", "AUR_lockfree", "CMR_lockbased", "CMR_lockfree"},
	}
	objSweep := sweepInts(p, 1, 10)
	points, err := specPoints(objSweep, func(objs int) WorkloadSpec {
		return WorkloadSpec{
			NumTasks: PaperTasks, NumObjects: objs, AccessesPerJob: objs,
			MeanExec: 500 * rtime.Microsecond, TargetAL: al,
			Class: class, MaxArrivals: 2,
		}
	})
	if err != nil {
		return nil, err
	}
	cells, err := runSweep(p, points, pairModes, simCell(metrics.Analyze))
	if err != nil {
		return nil, err
	}
	for pi, objs := range objSweep {
		t.AddRow(append([]any{objs}, aurCMRCells(cells[pi][0], cells[pi][1])...)...)
	}
	return []*Table{t}, nil
}

// Fig10 — underload, step TUFs.
func Fig10(p Profile) ([]*Table, error) { return AURCMR(p, "fig10", StepTUFs, 0.4) }

// Fig11 — underload, heterogeneous TUFs.
func Fig11(p Profile) ([]*Table, error) { return AURCMR(p, "fig11", HeterogeneousTUFs, 0.4) }

// Fig12 — overload, step TUFs.
func Fig12(p Profile) ([]*Table, error) { return AURCMR(p, "fig12", StepTUFs, 1.1) }

// Fig13 — overload, heterogeneous TUFs.
func Fig13(p Profile) ([]*Table, error) { return AURCMR(p, "fig13", HeterogeneousTUFs, 1.1) }

// Fig14 regenerates Figure 14: AUR/CMR across an increasing load sweep
// (0.1–1.1) with heterogeneous TUFs and reader tasks sharing queues.
func Fig14(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "AUR/CMR across load 0.1–1.1, heterogeneous TUFs (reader sweep)",
		Note:    fmt.Sprintf("10 reader tasks over 5 queues; r=%v s=%v", DefaultR, DefaultS),
		Columns: []string{"AL", "AUR_lockbased", "AUR_lockfree", "CMR_lockbased", "CMR_lockfree"},
	}
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.1}
	if p.Name == Quick.Name {
		loads = []float64{0.3, 0.9}
	}
	points, err := specPoints(loads, func(al float64) WorkloadSpec {
		return WorkloadSpec{
			NumTasks: PaperTasks, NumObjects: 5, AccessesPerJob: 4,
			MeanExec: 500 * rtime.Microsecond, TargetAL: al,
			Class: HeterogeneousTUFs, MaxArrivals: 2,
		}
	})
	if err != nil {
		return nil, err
	}
	cells, err := runSweep(p, points, pairModes, simCell(metrics.Analyze))
	if err != nil {
		return nil, err
	}
	for pi, al := range loads {
		t.AddRow(append([]any{al}, aurCMRCells(cells[pi][0], cells[pi][1])...)...)
	}
	return []*Table{t}, nil
}

// Thm2 validates Theorem 2 empirically: per-task measured maximum
// lock-free retries per job never exceed the analytic bound, under the
// bursty UAM adversary with conservative retry accounting.
func Thm2(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "thm2",
		Title:   "Theorem 2 retry bound vs measured per-job retries",
		Note:    "lock-free RUA, bursty UAM arrivals, conservative retry accounting",
		Columns: []string{"task", "uam", "C_us", "bound_f_i", "max_measured", "ok"},
	}
	w := WorkloadSpec{
		NumTasks: ValidationTasks, NumObjects: 3, AccessesPerJob: 4,
		MeanExec: 300 * rtime.Microsecond, TargetAL: 1.0,
		Class: StepTUFs, MaxArrivals: 2,
	}
	tasks, err := w.Build()
	if err != nil {
		return nil, err
	}
	bursty := sweepPoint{tasks: tasks, edit: func(cfg *sim.Config) { cfg.ArrivalKind = uam.KindBursty }}
	// Per-seed runs are independent; fan out and fold the per-task retry
	// maxima afterwards (max is commutative, so the merge is order-free).
	perSeed, err := runSweep(p, []sweepPoint{bursty}, []variant{lockFreeRUA}, func(cfg sim.Config, _, _ int) ([]int64, error) {
		cfg.KeepJobs = true // the per-task maxima read every job
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		maxr := make([]int64, len(cfg.Tasks))
		for _, j := range res.Jobs {
			if j.Retries > maxr[j.Task.ID] {
				maxr[j.Task.ID] = j.Retries
			}
		}
		return maxr, nil
	})
	if err != nil {
		return nil, err
	}
	maxRetries := map[int]int64{}
	for _, maxr := range perSeed[0][0] {
		for id, r := range maxr {
			if r > maxRetries[id] {
				maxRetries[id] = r
			}
		}
	}
	allOK := true
	for i, tk := range tasks {
		bound, err := analysis.RetryBound(i, tasks)
		if err != nil {
			return nil, err
		}
		ok := maxRetries[tk.ID] <= bound
		if !ok {
			allOK = false
		}
		t.AddRow(tk.Name, tk.Arrival.String(), int64(tk.CriticalTime()), bound, maxRetries[tk.ID], ok)
	}
	if !allOK {
		return []*Table{t}, fmt.Errorf("experiment: Theorem 2 bound violated (see table)")
	}
	return []*Table{t}, nil
}

// Thm3 maps the lock-free vs lock-based sojourn-time tradeoff across the
// s/r ratio: analytic worst-case sojourns from Theorem 3's inputs, the
// per-task exact thresholds, and measured mean sojourns from simulation.
// The crossover should straddle the paper's 2/3 figure.
func Thm3(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "thm3",
		Title:   "sojourn-time crossover vs s/r ratio",
		Note:    "analytic = Theorem 3 worst cases; sim = measured mean sojourn (µs); winner by analytic worst case",
		Columns: []string{"s/r", "analytic_LF_wins", "exact_thresh_min", "sim_sojourn_lb", "sim_sojourn_lf"},
	}
	ratios := []float64{0.1, 0.3, 0.5, 0.67, 0.8, 1.0, 1.3}
	if p.Name == Quick.Name {
		ratios = []float64{0.3, 0.67, 1.3}
	}
	r := 100 * rtime.Microsecond
	w := WorkloadSpec{
		NumTasks: ValidationTasks, NumObjects: 3, AccessesPerJob: 6,
		MeanExec: 400 * rtime.Microsecond, TargetAL: 0.5,
		Class: StepTUFs, MaxArrivals: 1,
	}
	tasks, err := w.Build()
	if err != nil {
		return nil, err
	}
	svals := make([]rtime.Duration, len(ratios))
	for pi, ratio := range ratios {
		svals[pi] = rtime.Duration(math.Max(1, math.Round(float64(r)*ratio)))
	}
	points := editPoints(tasks, svals, func(cfg *sim.Config, s rtime.Duration) { cfg.R, cfg.S = r, s })
	cells, err := runSweep(p, points, pairModes, simCell(metrics.Analyze))
	if err != nil {
		return nil, err
	}
	for pi, ratio := range ratios {
		s := svals[pi]
		wins := 0
		minThresh := math.Inf(1)
		for i := range tasks {
			in, err := analysis.InputsFor(i, tasks, r, s)
			if err != nil {
				return nil, err
			}
			if in.ExactConditionHolds() {
				wins++
			}
			if th := in.ExactThreshold(); th < minThresh {
				minThresh = th
			}
		}
		lb, lf := cells[pi][0], cells[pi][1]
		t.AddRow(ratio, fmt.Sprintf("%d/%d", wins, len(tasks)), minThresh,
			means(lb, func(st metrics.RunStats) float64 { return float64(st.MeanSojourn) }).String(),
			means(lf, func(st metrics.RunStats) float64 { return float64(st.MeanSojourn) }).String(),
		)
	}
	return []*Table{t}, nil
}

// Costs regenerates the §3.6/§5 asymptotic comparison: charged operation
// counts of one lock-based vs one lock-free RUA scheduling pass as the
// ready queue grows, against the Θ(n² log n) / Θ(n²) predictions.
func Costs(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "costs",
		Title:   "RUA scheduling-pass cost: lock-based O(n² log n) vs lock-free O(n²)",
		Note:    "charged ops per Select over n jobs with lock dependencies present",
		Columns: []string{"n", "ops_lockbased", "ops_lockfree", "ratio", "log2(n)"},
	}
	ns := []int{4, 8, 16, 32, 64, 128, 256}
	if p.Name == Quick.Name {
		ns = []int{8, 32, 128}
	}
	type cell struct{ lb, lf int64 }
	cells, err := runner.Grid(p.Jobs, len(ns), 1, 1, func(i, _, _ int) (cell, error) {
		wLB, wLF := CostWorld(ns[i])
		return cell{
			lb: rua.NewLockBased().Select(wLB).Ops,
			lf: rua.NewLockFree().Select(wLF).Ops,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		c := cells[i][0][0]
		ratio := float64(c.lb) / float64(c.lf)
		t.AddRow(n, c.lb, c.lf, ratio, math.Log2(float64(n)))
	}
	return []*Table{t}, nil
}

// CostWorld builds a synthetic n-job world exhibiting the paper's §3.6
// worst case: an O(n)-long dependency chain (J_i holds object i while
// waiting for object i−1, the nested-section shape that makes chains
// deep), so lock-based RUA's per-job aggregate work is Θ(n) while
// lock-free RUA's stays Θ(1) plus schedule insertion. Exported for reuse
// by the root benchmarks. The chain state is installed directly on the
// resource map — the cost experiment measures one scheduling pass, not an
// execution.
func CostWorld(n int) (lockBased, lockFree sched.World) {
	res := resource.NewSizedMap(n, max(n, 1))
	w := WorkloadSpec{
		NumTasks: n, NumObjects: max(n, 1), AccessesPerJob: 1,
		MeanExec: 300 * rtime.Microsecond, TargetAL: 0.8,
		Class: HeterogeneousTUFs, MaxArrivals: 1,
	}
	tasks, err := w.Build()
	if err != nil {
		panic(err)
	}
	jobs := make([]*task.Job, n)
	for i, tk := range tasks {
		jobs[i] = task.NewJob(tk, 0, rtime.Time(i))
		// Numbered as an engine numbers its jobs: the resource map
		// indexes lock state by EngineSlot.
		jobs[i].EngineSlot = int32(i)
	}
	// J_0 holds o_0. For i ≥ 1: J_i holds o_i and waits on o_{i-1}.
	for i := 0; i < n; i++ {
		if granted, _, err := res.TryAcquire(jobs[i], i); err != nil || !granted {
			panic(fmt.Sprintf("experiment: CostWorld acquire %d: granted=%v err=%v", i, granted, err))
		}
	}
	for i := 1; i < n; i++ {
		if granted, _, err := res.TryAcquire(jobs[i], i-1); err != nil || granted {
			panic(fmt.Sprintf("experiment: CostWorld wait %d: granted=%v err=%v", i, granted, err))
		}
		jobs[i].State = task.Blocked
	}
	lockBased = sched.World{Now: 0, Jobs: jobs, Res: res, Acc: 10, LockBased: true}
	lockFree = sched.World{Now: 0, Jobs: jobs, Res: res, Acc: 10, LockBased: false}
	return lockBased, lockFree
}

// AURBoundsExp checks Lemmas 4 and 5: simulated AUR must not exceed the
// analytic upper bound (and the lower bound must not exceed the upper).
func AURBoundsExp(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "aurbounds",
		Title:   "Lemma 4/5 AUR bounds vs simulated AUR (underload, non-increasing TUFs)",
		Note:    "upper bound uses shortest sojourns at max rate; lower uses worst sojourns at min rate",
		Columns: []string{"mode", "lower", "measured", "upper", "ok"},
	}
	w := WorkloadSpec{
		NumTasks: BoundsTasks, NumObjects: 4, AccessesPerJob: 2,
		MeanExec: 300 * rtime.Microsecond, TargetAL: 0.3,
		Class: HeterogeneousTUFs, MaxArrivals: 1,
	}
	tasks, err := w.Build()
	if err != nil {
		return nil, err
	}
	interfLF, err := analysis.InterferenceVector(tasks, DefaultS)
	if err != nil {
		return nil, err
	}
	interfLB, err := analysis.InterferenceVector(tasks, DefaultR)
	if err != nil {
		return nil, err
	}
	lfB, err := analysis.LockFreeAUR(tasks, DefaultS, interfLF)
	if err != nil {
		return nil, err
	}
	lbB, err := analysis.LockBasedAUR(tasks, DefaultR, interfLB)
	if err != nil {
		return nil, err
	}
	pt := sweepPoint{tasks: tasks, edit: func(cfg *sim.Config) { cfg.OpCost = 0 }}
	cells, err := runSweep(p, []sweepPoint{pt}, pairModes, simCell(metrics.Analyze))
	if err != nil {
		return nil, err
	}
	lb, lf := cells[0][0], cells[0][1]
	const eps = 1e-9
	mlb := means(lb, func(s metrics.RunStats) float64 { return s.AUR })
	mlf := means(lf, func(s metrics.RunStats) float64 { return s.AUR })
	okLB := mlb.Mean <= lbB.Upper+eps && lbB.Lower <= lbB.Upper+eps
	okLF := mlf.Mean <= lfB.Upper+eps && lfB.Lower <= lfB.Upper+eps
	t.AddRow("lock-based", lbB.Lower, mlb.String(), lbB.Upper, okLB)
	t.AddRow("lock-free", lfB.Lower, mlf.String(), lfB.Upper, okLF)
	if !okLB || !okLF {
		return []*Table{t}, fmt.Errorf("experiment: AUR bounds violated (see table)")
	}
	return []*Table{t}, nil
}

// Runner is one registered experiment.
type Runner func(Profile) ([]*Table, error)

// Registry maps experiment ids to runners, in the order DESIGN.md lists
// them.
var Registry = map[string]Runner{
	"fig8":            Fig8,
	"fig9":            Fig9,
	"fig10":           Fig10,
	"fig11":           Fig11,
	"fig12":           Fig12,
	"fig13":           Fig13,
	"fig14":           Fig14,
	"thm2":            Thm2,
	"thm3":            Thm3,
	"costs":           Costs,
	"aurbounds":       AURBoundsExp,
	"ablation-retry":  AblationRetry,
	"ablation-opcost": AblationOpCost,
	"baselines":       Baselines,
	"multicpu":        MultiCPU,
	"globalcpu":       GlobalCPU,
	"lockdisc":        LockDisciplines,
	"faults":          FaultSweep,
	"scale":           Scale,
	"stoch":           StochSweep,
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sweepInts returns the object-count sweep for the profile.
func sweepInts(p Profile, lo, hi int) []int {
	if p.Name == Quick.Name {
		return []int{lo, (lo + hi) / 2, hi}
	}
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func loadGrid(p Profile) []float64 {
	if p.Name == Quick.Name {
		return []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.2}
	}
	out := make([]float64, 0, 12)
	for al := 0.1; al <= 1.21; al += 0.1 {
		out = append(out, al)
	}
	return out
}
