// Package report renders a simulated run or sweep into figure-grade,
// byte-deterministic artifacts: per-distribution CSV files, virtual-time
// series CSV, per-task bound tables, and a self-contained HTML report
// with inline SVG charts (stdlib html/template only — no external
// assets, open the file anywhere). The report is the aggregation tier
// of the observability stack: internal/trace records events,
// internal/trace/span folds them per job, internal/metrics/series per
// window, internal/metrics/hist per distribution — this package lays
// those views side by side with the paper's analytical bounds
// (Theorem 2's retry bound drawn over the observed retry histogram,
// Theorem 3's sojourn composition next to the sojourn tail).
//
// Everything rendered here is a pure function of the Report value:
// fixed column orders, fixed float formatting, no map iteration, no
// timestamps — equal inputs yield byte-identical files for any worker
// count upstream.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics/hist"
	"repro/internal/metrics/predict"
	"repro/internal/metrics/series"
	"repro/internal/rtime"
	"repro/internal/trace/check"
)

// Dist is one observed distribution with an optional analytical bound
// overlay.
type Dist struct {
	Name  string // file/column-safe slug, e.g. "retries_per_job"
	Title string // chart heading
	Unit  string // axis unit, e.g. "retries", "µs"
	Hist  *hist.Hist

	// Bound is the analytic overlay (Theorem 2 retry bound, Theorem 3
	// sojourn bound), -1 when no bound applies to this run.
	Bound      int64
	BoundLabel string
}

// OpDist is one operation kind's retry telemetry (internal/metrics/ops
// rendered): the distribution of attempts a committed access needed and
// of the CAS failures behind them. Kept apart from Dists so the
// cross-run summary columns stay fixed while the per-object panel
// varies with the workload.
type OpDist struct {
	Name     string // slug: "all" or "obj<N>"
	Title    string
	Ops      int64 // committed operations
	Attempts *hist.Hist
	Failures *hist.Hist
}

// FailureRate is mean CAS failures per committed operation.
func (d *OpDist) FailureRate() float64 {
	if d.Ops == 0 {
		return 0
	}
	return float64(d.Failures.Sum()) / float64(d.Ops)
}

// Run is one simulated configuration's section of the report.
type Run struct {
	Name  string // slug, e.g. "uni-lockfree"
	Sim   string // uni | multi | global
	Mode  string // lock-free | lock-based
	Seeds []int64

	Jobs      int64
	Completed int64
	Aborted   int64
	Shed      int64 // admission-control drops (subset of Aborted), fault runs only

	Dists  []Dist
	Series *series.Series
	Check  *check.Report // per-task observed extremes vs bounds

	// OpDists is the per-operation retry-tail panel ("all" first, then
	// per object ascending); empty when the run recorded no commits.
	OpDists []OpDist
	// Pred is the analytic throughput overlay fitted from the run's
	// series (nil when no series was folded).
	Pred *predict.Overlay
}

// Violations renders the run's bound violations (empty when all hold
// or no bounds were evaluated).
func (r *Run) Violations() []string {
	if r.Check == nil {
		return nil
	}
	out := make([]string, len(r.Check.Violations))
	for i, v := range r.Check.Violations {
		out[i] = v.String()
	}
	return out
}

// Table is a generic figure table (the renderer-side twin of
// experiment.Table, kept here so experiment can depend on report and
// not the other way around).
type Table struct {
	ID      string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Report is a full run-or-sweep report.
type Report struct {
	Title    string
	Profile  string
	Workload string

	Runs []Run
	Figs []Table
}

// fmtFloat renders v with four significant decimals, the fixed
// precision of every derived float in the report.
func fmtFloat(v float64) string { return formatFixed(v, 4) }

// distSummaryCols are the per-distribution summary columns.
var distSummaryCols = []string{"n", "mean", "p50", "p90", "p95", "p99", "p999", "max", "bound"}

// SummaryTable builds the cross-run digest: one row per run, the
// p50/p95/p99/max tail statistics next to each mean, and the analytic
// bound column ("-" when not applicable).
func (r *Report) SummaryTable() *Table {
	t := &Table{
		ID:      "summary",
		Title:   "per-run distribution digest",
		Columns: []string{"run", "sim", "mode", "seeds", "jobs", "completed", "aborted", "violations"},
	}
	if len(r.Runs) > 0 {
		for _, d := range r.Runs[0].Dists {
			for _, c := range distSummaryCols {
				t.Columns = append(t.Columns, d.Name+"_"+c)
			}
		}
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		row := []string{
			run.Name, run.Sim, run.Mode,
			strconv.Itoa(len(run.Seeds)),
			strconv.FormatInt(run.Jobs, 10),
			strconv.FormatInt(run.Completed, 10),
			strconv.FormatInt(run.Aborted, 10),
			strconv.Itoa(len(run.Violations())),
		}
		for _, d := range run.Dists {
			s := d.Hist.Summarize()
			bound := "-"
			if d.Bound >= 0 {
				bound = strconv.FormatInt(d.Bound, 10)
			}
			row = append(row,
				strconv.FormatInt(s.N, 10), fmtFloat(s.Mean),
				strconv.FormatInt(s.P50, 10), strconv.FormatInt(s.P90, 10),
				strconv.FormatInt(s.P95, 10), strconv.FormatInt(s.P99, 10),
				strconv.FormatInt(s.P999, 10),
				strconv.FormatInt(s.Max, 10), bound,
			)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// WriteCSV renders a table in the repo's standard CSV shape: a
// comment-style id/title record, the header, then rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.ID, t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// histCSV renders one distribution's buckets.
func histCSV(w io.Writer, d Dist) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"lo", "hi", "count", "cum_count", "cum_frac"}); err != nil {
		return err
	}
	n := d.Hist.N()
	var cum int64
	for _, b := range d.Hist.Buckets() {
		cum += b.Count
		lo := strconv.FormatInt(b.Lo, 10)
		if b.Lo == math.MinInt64 {
			lo = "-inf"
		}
		frac := "0.0000"
		if n > 0 {
			frac = fmtFloat(float64(cum) / float64(n))
		}
		if err := cw.Write([]string{
			lo, strconv.FormatInt(b.Hi, 10),
			strconv.FormatInt(b.Count, 10), strconv.FormatInt(cum, 10), frac,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tasksCSV renders the per-task observed extremes against their
// analytical bounds.
func tasksCSV(w io.Writer, rep *check.Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"task", "jobs", "completed", "max_retries", "retry_bound",
		"max_sojourn_us", "sojourn_bound_us",
	}); err != nil {
		return err
	}
	for _, tr := range rep.Tasks {
		rb, sb := "-", "-"
		if tr.RetryBound >= 0 {
			rb = strconv.FormatInt(tr.RetryBound, 10)
		}
		if tr.SojournBound >= 0 {
			sb = strconv.FormatInt(tr.SojournBound.Micros(), 10)
		}
		if err := cw.Write([]string{
			strconv.Itoa(tr.Task), strconv.Itoa(tr.Jobs), strconv.Itoa(tr.Completed),
			strconv.FormatInt(tr.MaxRetries, 10), rb,
			strconv.FormatInt(tr.MaxSojourn.Micros(), 10), sb,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// opsCSV renders the per-operation retry-tail digest: one attempts row
// and one failures row per operation kind.
func opsCSV(w io.Writer, dists []OpDist) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"op", "kind", "ops", "n", "mean", "p50", "p90", "p95", "p99", "p999", "max", "fail_rate",
	}); err != nil {
		return err
	}
	row := func(op string, kind string, ops int64, h *hist.Hist, rate float64) []string {
		s := h.Summarize()
		return []string{
			op, kind, strconv.FormatInt(ops, 10),
			strconv.FormatInt(s.N, 10), fmtFloat(s.Mean),
			strconv.FormatInt(s.P50, 10), strconv.FormatInt(s.P90, 10),
			strconv.FormatInt(s.P95, 10), strconv.FormatInt(s.P99, 10),
			strconv.FormatInt(s.P999, 10), strconv.FormatInt(s.Max, 10),
			fmtFloat(rate),
		}
	}
	for i := range dists {
		d := &dists[i]
		if err := cw.Write(row(d.Name, "attempts", d.Ops, d.Attempts, d.FailureRate())); err != nil {
			return err
		}
		if err := cw.Write(row(d.Name, "failures", d.Ops, d.Failures, d.FailureRate())); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// predictedCSV renders the throughput overlay: the fitted model in a
// comment record, then one row per window.
func predictedCSV(w io.Writer, o *predict.Overlay) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"# predictor",
		"alpha=" + fmtFloat(o.Fit.Alpha) + " beta=" + fmtFloat(o.Fit.Beta) +
			" windows=" + strconv.Itoa(o.Fit.Windows) + " rel_err=" + fmtFloat(o.RelErr),
	}); err != nil {
		return err
	}
	if err := cw.Write([]string{"start_us", "retries_per_commit", "observed_commits", "predicted_commits"}); err != nil {
		return err
	}
	for _, p := range o.Points {
		if err := cw.Write([]string{
			strconv.FormatInt(int64(p.Start), 10), fmtFloat(p.X),
			strconv.FormatInt(p.Observed, 10), fmtFloat(p.Predicted),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// File is one rendered artifact: a name and its exact bytes. The
// in-memory form lets consumers that never touch the filesystem (the
// rtsimd serving daemon) hand out the same bytes WriteCSVDir writes.
type File struct {
	Name string
	Data []byte
}

// CSVFiles renders every CSV artifact in memory and returns them
// sorted by name. Contents and the name list are byte-deterministic;
// WriteCSVDir writes exactly these files.
func (r *Report) CSVFiles() ([]File, error) {
	var files []File
	writeFile := func(name string, fill func(io.Writer) error) error {
		var b strings.Builder
		if err := fill(&b); err != nil {
			return fmt.Errorf("report: %s: %w", name, err)
		}
		files = append(files, File{Name: name, Data: []byte(b.String())})
		return nil
	}
	summary := r.SummaryTable()
	if err := writeFile("summary.csv", summary.WriteCSV); err != nil {
		return nil, err
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		for _, d := range run.Dists {
			d := d
			if err := writeFile(run.Name+"_hist_"+d.Name+".csv", func(w io.Writer) error {
				return histCSV(w, d)
			}); err != nil {
				return nil, err
			}
		}
		if run.Series != nil {
			if err := writeFile(run.Name+"_series.csv", run.Series.WriteCSV); err != nil {
				return nil, err
			}
		}
		if run.Check != nil {
			if err := writeFile(run.Name+"_tasks.csv", func(w io.Writer) error {
				return tasksCSV(w, run.Check)
			}); err != nil {
				return nil, err
			}
		}
		if len(run.OpDists) > 0 {
			if err := writeFile(run.Name+"_ops.csv", func(w io.Writer) error {
				return opsCSV(w, run.OpDists)
			}); err != nil {
				return nil, err
			}
		}
		if run.Pred != nil {
			if err := writeFile(run.Name+"_predicted.csv", func(w io.Writer) error {
				return predictedCSV(w, run.Pred)
			}); err != nil {
				return nil, err
			}
		}
	}
	for i := range r.Figs {
		f := &r.Figs[i]
		if err := writeFile(f.ID+".csv", f.WriteCSV); err != nil {
			return nil, err
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

// WriteCSVDir writes every CSV artifact into dir (created if missing)
// and returns the sorted file names. File contents and the name list
// are byte-deterministic.
func (r *Report) WriteCSVDir(dir string) ([]string, error) {
	files, err := r.CSVFiles()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, len(files))
	for i, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
			return nil, err
		}
		names[i] = f.Name
	}
	return names, nil
}

// WriteText renders the -metrics digest: the summary statistics of
// every run, its series totals, and any bound violations — one
// deterministic text block.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: %s workload=%s profile=%s runs=%d\n", r.Title, r.Workload, r.Profile, len(r.Runs))
	for i := range r.Runs {
		run := &r.Runs[i]
		shed := ""
		if run.Shed > 0 {
			shed = fmt.Sprintf(" shed=%d", run.Shed)
		}
		fmt.Fprintf(&b, "run %s sim=%s mode=%s seeds=%d jobs=%d completed=%d aborted=%d%s violations=%d\n",
			run.Name, run.Sim, run.Mode, len(run.Seeds), run.Jobs, run.Completed, run.Aborted, shed, len(run.Violations()))
		for _, d := range run.Dists {
			s := d.Hist.Summarize()
			bound := "-"
			if d.Bound >= 0 {
				bound = strconv.FormatInt(d.Bound, 10)
			}
			fmt.Fprintf(&b, "  %-16s n=%d mean=%s p50=%d p90=%d p95=%d p99=%d p999=%d max=%d bound=%s\n",
				d.Name, s.N, fmtFloat(s.Mean), s.P50, s.P90, s.P95, s.P99, s.P999, s.Max, bound)
		}
		for i := range run.OpDists {
			d := &run.OpDists[i]
			s := d.Attempts.Summarize()
			fmt.Fprintf(&b, "  op %-13s ops=%d attempts mean=%s p95=%d p99=%d p999=%d max=%d fail_rate=%s\n",
				d.Name, d.Ops, fmtFloat(s.Mean), s.P95, s.P99, s.P999, s.Max, fmtFloat(d.FailureRate()))
		}
		if run.Pred != nil {
			fmt.Fprintf(&b, "  %-16s alpha=%s beta=%s windows=%d rel_err=%s\n",
				"predictor", fmtFloat(run.Pred.Fit.Alpha), fmtFloat(run.Pred.Fit.Beta),
				run.Pred.Fit.Windows, fmtFloat(run.Pred.RelErr))
		}
		if run.Series != nil {
			tot := run.Series.Totals()
			fmt.Fprintf(&b, "  %-16s window=%s windows=%d cpus=%d sched_passes=%d sched_ops=%d preempts=%d blocks=%d\n",
				"series", rtime.Duration(run.Series.Window).String(), len(run.Series.Points),
				run.Series.CPUs, tot.SchedPasses, tot.SchedOps, tot.Preempts, tot.Blocks)
		}
		for _, v := range run.Violations() {
			fmt.Fprintf(&b, "  VIOLATION %s\n", v)
		}
	}
	for i := range r.Figs {
		f := &r.Figs[i]
		fmt.Fprintf(&b, "fig %s rows=%d (%s)\n", f.ID, len(f.Rows), f.Title)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
