package experiment

import (
	"fmt"

	"repro/internal/metrics/hist"
	"repro/internal/metrics/ops"
	"repro/internal/metrics/predict"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace/check"
	"repro/internal/trace/span"
)

// Histogram shapes shared by every run so cross-seed merges line up.
func newRetryHist() *hist.Hist { return hist.Exp2(1 << 12) }

func newSojournHist() *hist.Hist { return hist.Exp2(1 << 26) }

// BuildReport runs the canonical trace workload across every simulator
// × mode × profile seed and folds each cell online (foldTrace) into
// distribution histograms, per-operation retry telemetry, the Theorem
// 2/3 bound check and, for the first seed of each combo, a virtual-time
// series; then it attaches the requested figure tables. No cell buffers
// its events: memory per cell is O(series windows + live jobs). Cells
// fan out on runner.Grid and merge by index, so the result — and
// everything rendered from it — is identical for any p.Jobs value.
func BuildReport(p Profile, figIDs []string) (*report.Report, error) {
	type outcome struct {
		jobs, completed, aborted, shed int64
		retries, sojourn               *hist.Hist
		res                            *obs.Results
	}
	outs, err := runner.Grid(p.Jobs, len(traceSims), len(traceModes), len(p.Seeds), func(si, mi, rep int) (outcome, error) {
		o := outcome{retries: newRetryHist(), sojourn: newSojournHist()}
		// Jobs stream through as they depart; only the histograms and
		// counters stay behind. The first seed of each run folds the
		// series.
		res, err := foldTrace(p, traceSims[si], traceModes[mi], p.Seeds[rep], rep == 0, func(s *span.JobSpan) {
			o.jobs++
			o.retries.Add(s.Retries)
			switch s.Outcome {
			case span.Completed:
				o.completed++
				o.sojourn.Add(s.Sojourn().Micros())
			case span.Aborted:
				o.aborted++
			}
			if s.Shed {
				o.shed++
			}
		})
		if err != nil {
			return outcome{}, err
		}
		o.res = res
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &report.Report{
		Title:    "rtsim canonical-workload report",
		Profile:  p.Name,
		Workload: "thm2-trace",
	}
	for si, simName := range traceSims {
		for mi, lockBased := range traceModes {
			mode := "lockfree"
			if lockBased {
				mode = "lockbased"
			}
			run := report.Run{
				Name: simName + "-" + mode,
				Sim:  simName,
				Mode: modeLabel(lockBased),
			}
			retries, sojourn := newRetryHist(), newSojournHist()
			var merged *check.Report
			opSet := &ops.Set{}
			for i, o := range outs[si][mi] {
				run.Seeds = append(run.Seeds, p.Seeds[i])
				run.Jobs += o.jobs
				run.Completed += o.completed
				run.Aborted += o.aborted
				run.Shed += o.shed
				if err := retries.Merge(o.retries); err != nil {
					return nil, fmt.Errorf("experiment: merge %s retry hist: %w", run.Name, err)
				}
				if err := sojourn.Merge(o.sojourn); err != nil {
					return nil, fmt.Errorf("experiment: merge %s sojourn hist: %w", run.Name, err)
				}
				merged = mergeChecks(merged, o.res.Check)
				if err := opSet.Merge(o.res.Ops); err != nil {
					return nil, fmt.Errorf("experiment: merge %s op telemetry: %w", run.Name, err)
				}
				if i == 0 {
					run.Series = o.res.Series
				}
			}
			finishRun(&run, lockBased, merged, opSet, retries, sojourn)
			rep.Runs = append(rep.Runs, run)
		}
	}
	if err := attachFigs(rep, p, figIDs); err != nil {
		return nil, err
	}
	return rep, nil
}

// finishRun attaches a combo's merged fold products to its report run:
// the bound overlays extracted from the merged check, the two canonical
// distributions, the op-telemetry panel, and the throughput overlay.
func finishRun(run *report.Run, lockBased bool, merged *check.Report, opSet *ops.Set, retries, sojourn *hist.Hist) {
	retryBound, sojournBound := int64(-1), int64(-1)
	if merged != nil {
		for _, tr := range merged.Tasks {
			if !lockBased && tr.RetryBound > retryBound {
				retryBound = tr.RetryBound
			}
			if b := tr.SojournBound.Micros(); tr.SojournBound >= 0 && b > sojournBound {
				sojournBound = b
			}
		}
	}
	run.Dists = []report.Dist{
		{Name: "retries", Title: "retries per job", Unit: "retries",
			Hist: retries, Bound: retryBound, BoundLabel: "theorem 2 bound"},
		{Name: "sojourn_us", Title: "sojourn time of completed jobs", Unit: "µs",
			Hist: sojourn, Bound: sojournBound, BoundLabel: "theorem 3 bound"},
	}
	run.Check = merged
	run.OpDists = opDists(opSet)
	if run.Series != nil {
		run.Pred = predict.FromSeries(run.Series)
	}
}

// attachFigs appends the requested figure tables to the report, from
// p.FigMemo when it holds them. Runners see p with the fault and stoch
// overlays cleared: no figure reads them (they perturb only the traced
// runs above), and clearing them makes the memo key, which omits them,
// exact by construction.
func attachFigs(rep *report.Report, p Profile, figIDs []string) error {
	p.Fault, p.Stoch = nil, nil
	for _, id := range figIDs {
		r, ok := Registry[id]
		if !ok {
			return fmt.Errorf("experiment: unknown experiment %q for report", id)
		}
		tables, err := p.FigMemo.tables(id, r, p)
		if err != nil {
			return fmt.Errorf("experiment: report fig %s: %w", id, err)
		}
		for _, t := range tables {
			rep.Figs = append(rep.Figs, report.Table{
				ID: t.ID, Title: t.Title, Note: t.Note,
				Columns: t.Columns, Rows: t.Rows,
			})
		}
	}
	return nil
}

// opDists renders a merged ops.Set as the report's retry-tail panel:
// the cross-object total first, then per object ascending. Empty sets
// (a run that never committed) render no panel.
func opDists(s *ops.Set) []report.OpDist {
	if s == nil || len(s.Dists) == 0 {
		return nil
	}
	out := make([]report.OpDist, 0, len(s.Dists)+1)
	tot := s.Total()
	out = append(out, report.OpDist{
		Name: "all", Title: "all objects",
		Ops: tot.Ops, Attempts: tot.Attempts, Failures: tot.Failures,
	})
	for _, d := range s.Dists {
		out = append(out, report.OpDist{
			Name:  fmt.Sprintf("obj%d", d.Object),
			Title: fmt.Sprintf("object %d", d.Object),
			Ops:   d.Ops, Attempts: d.Attempts, Failures: d.Failures,
		})
	}
	return out
}

// mergeChecks folds per-seed bound checks of one combo into a single
// report: per-task maxima of observed extremes (bounds are seed-
// independent), violations concatenated in seed order.
func mergeChecks(into, from *check.Report) *check.Report {
	if from == nil {
		return into
	}
	if into == nil {
		cp := *from
		cp.Tasks = append([]check.TaskReport(nil), from.Tasks...)
		cp.Violations = append([]check.Violation(nil), from.Violations...)
		return &cp
	}
	for i := range from.Tasks {
		ft := from.Tasks[i]
		if i >= len(into.Tasks) || into.Tasks[i].Task != ft.Task {
			into.Tasks = append(into.Tasks, ft)
			continue
		}
		it := &into.Tasks[i]
		it.Jobs += ft.Jobs
		it.Completed += ft.Completed
		if ft.MaxRetries > it.MaxRetries {
			it.MaxRetries = ft.MaxRetries
		}
		if ft.MaxSojourn > it.MaxSojourn {
			it.MaxSojourn = ft.MaxSojourn
		}
	}
	into.Violations = append(into.Violations, from.Violations...)
	return into
}
