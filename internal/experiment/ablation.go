package experiment

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/sim"
	"repro/internal/uam"
)

// AblationRetry compares the two retry-accounting semantics of DESIGN.md
// §5.2 under overload: the conservative adversary (any intervening
// dispatch invalidates a preempted access — the model Theorem 2 bounds)
// versus conflict-precise accounting (retry only when a conflicting
// commit landed on the same object). The bound must hold for both, and
// precise accounting must never retry more than conservative.
func AblationRetry(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "ablation-retry",
		Title:   "retry semantics: conservative adversary vs conflict-precise",
		Note:    "lock-free RUA, overload AL≈1.1, 10 tasks / 4 accesses over 3 objects",
		Columns: []string{"semantics", "retries/1k jobs", "AUR", "CMR"},
	}
	type row struct {
		name    string
		conserv bool
	}
	rows := []row{{"conservative", true}, {"precise", false}}
	w := WorkloadSpec{
		NumTasks: PaperTasks, NumObjects: 3, AccessesPerJob: 4,
		MeanExec: 500 * rtime.Microsecond, TargetAL: 1.1,
		Class: StepTUFs, MaxArrivals: 2,
	}
	template, err := w.Build()
	if err != nil {
		return nil, err
	}
	points := editPoints(template, rows, func(cfg *sim.Config, rw row) {
		cfg.ArrivalKind, cfg.ConservativeRetry = uam.KindBursty, rw.conserv
	})
	type cell struct {
		retries, jobs int64
		aur, cmr      float64
	}
	cells, err := runSweep(p, points, []variant{lockFreeRUA}, simCell(func(res sim.Result) cell {
		st := metrics.Analyze(res)
		return cell{retries: res.Retries, jobs: res.Arrivals, aur: st.AUR, cmr: st.CMR}
	}))
	if err != nil {
		return nil, err
	}
	var retriesByMode [2]float64
	for ri, rw := range rows {
		var retries, jobs int64
		var aurs, cmrs []float64
		for _, c := range cells[ri][0] {
			retries += c.retries
			jobs += c.jobs
			aurs = append(aurs, c.aur)
			cmrs = append(cmrs, c.cmr)
		}
		perK := 0.0
		if jobs > 0 {
			perK = 1000 * float64(retries) / float64(jobs)
		}
		retriesByMode[ri] = perK
		t.AddRow(rw.name, perK,
			metrics.Summarize(aurs).String(), metrics.Summarize(cmrs).String())
	}
	if retriesByMode[1] > retriesByMode[0] {
		return []*Table{t}, fmt.Errorf("experiment: precise retries (%v/1k) exceed conservative (%v/1k)",
			retriesByMode[1], retriesByMode[0])
	}
	return []*Table{t}, nil
}

// AblationOpCost isolates the scheduling-overhead charge of DESIGN.md
// §5.1: the same lock-free RUA workload with the per-operation cost
// zeroed ("ideal"), at the calibrated default, and at 10× the default.
// AUR/CMR must degrade monotonically as the scheduler gets slower.
func AblationOpCost(p Profile) ([]*Table, error) {
	t := &Table{
		ID:      "ablation-opcost",
		Title:   "scheduler op-cost charge: ideal vs calibrated vs 10×",
		Note:    "lock-free RUA, AL≈0.9, 10 tasks / 4 accesses",
		Columns: []string{"op_cost_us", "overhead_ms", "AUR", "CMR"},
	}
	opCosts := []float64{0, DefaultOpCost, 10 * DefaultOpCost}
	w := WorkloadSpec{
		NumTasks: PaperTasks, NumObjects: 4, AccessesPerJob: 4,
		MeanExec: 300 * rtime.Microsecond, TargetAL: 0.9,
		Class: StepTUFs, MaxArrivals: 2,
	}
	template, err := w.Build()
	if err != nil {
		return nil, err
	}
	points := editPoints(template, opCosts, func(cfg *sim.Config, opCost float64) { cfg.OpCost = opCost })
	type cell struct {
		aur, cmr float64
		overhead rtime.Duration
	}
	cells, err := runSweep(p, points, []variant{lockFreeRUA}, simCell(func(res sim.Result) cell {
		st := metrics.Analyze(res)
		return cell{aur: st.AUR, cmr: st.CMR, overhead: res.Overhead}
	}))
	if err != nil {
		return nil, err
	}
	for oi, opCost := range opCosts {
		var aurs, cmrs []float64
		var overhead rtime.Duration
		for _, c := range cells[oi][0] {
			aurs = append(aurs, c.aur)
			cmrs = append(cmrs, c.cmr)
			overhead += c.overhead
		}
		t.AddRow(opCost, float64(overhead)/float64(len(p.Seeds))/1000,
			metrics.Summarize(aurs).String(), metrics.Summarize(cmrs).String())
	}
	return []*Table{t}, nil
}
