package report

import (
	"html/template"
	"io"
	"strconv"
	"strings"

	"repro/internal/rtime"
)

// The HTML report is a single self-contained file: stdlib templates,
// inline SVG, CSS custom properties for light/dark. Every value shown
// in a chart also appears in a table on the same page, so no reading
// depends on color or hover alone.

// tile is one headline stat.
type tile struct {
	Label string
	Value string
}

// distView is a distribution chart plus its digest row.
type distView struct {
	Title   string
	Chart   Chart
	Summary []string // digest aligned with distSummaryCols
	Bounded bool
	Held    bool // observed max ≤ bound
}

// runView is one run section.
type runView struct {
	Name       string
	Caption    string
	Tiles      []tile
	Dists      []distView
	Charts     []Chart // series charts
	Pred       *Chart  // predicted-vs-observed throughput overlay
	PredNote   string  // fitted model + relative error caption
	OpTable    *Table  // per-operation retry-tail panel
	Tasks      *Table
	Violations []string
}

// figView is one figure section: table always, chart when the rows are
// numeric over a shared x.
type figView struct {
	Table *Table
	Chart *Chart
	Note  string
}

// page is the template root.
type page struct {
	Title    string
	Subtitle string
	Summary  *Table
	Runs     []runView
	Figs     []figView
}

// parseCell reads a numeric table cell, accepting the sweep tables'
// "mean ± ci" form by taking the mean.
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if i := strings.IndexAny(s, "±"); i >= 0 {
		s = strings.TrimSpace(s[:i])
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// figChart derives a line chart from a figure table when its first
// column and at least one further column are numeric in every row.
// At most four series are charted; the rest stay table-only (noted in
// the caption rather than silently dropped).
func figChart(t *Table) (*Chart, string) {
	if len(t.Rows) < 2 || len(t.Columns) < 2 {
		return nil, ""
	}
	xs := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		v, ok := parseCell(row[0])
		if !ok {
			return nil, ""
		}
		xs[i] = v
	}
	var ser []LineSeries
	var skipped []string
	for j := 1; j < len(t.Columns); j++ {
		vals := make([]float64, len(t.Rows))
		ok := true
		for i, row := range t.Rows {
			if j >= len(row) {
				ok = false
				break
			}
			v, numOK := parseCell(row[j])
			if !numOK {
				ok = false
				break
			}
			vals[i] = v
		}
		if !ok {
			continue
		}
		if len(ser) < len(seriesColors) {
			ser = append(ser, LineSeries{Name: t.Columns[j], Vals: vals})
		} else {
			skipped = append(skipped, t.Columns[j])
		}
	}
	if len(ser) == 0 {
		return nil, ""
	}
	c := LineChart(t.Title, xs, ser, t.Columns[0], "")
	note := ""
	if len(skipped) > 0 {
		note = "table-only columns (chart caps at 4 series): " + strings.Join(skipped, ", ")
	}
	return &c, note
}

// seriesCharts renders the run's virtual-time tracks: mean levels and
// per-window event counts.
func (r *Run) seriesCharts() []Chart {
	s := r.Series
	if s == nil || len(s.Points) == 0 {
		return nil
	}
	xs := make([]float64, len(s.Points))
	level := []LineSeries{
		{Name: "ready (mean jobs)", Vals: make([]float64, len(s.Points))},
		{Name: "busy (mean CPUs)", Vals: make([]float64, len(s.Points))},
	}
	events := []LineSeries{
		{Name: "retries", Vals: make([]float64, len(s.Points))},
		{Name: "blocks", Vals: make([]float64, len(s.Points))},
		{Name: "preempts", Vals: make([]float64, len(s.Points))},
		{Name: "completions", Vals: make([]float64, len(s.Points))},
	}
	for i, p := range s.Points {
		xs[i] = float64(p.Start) / 1000 // ms
		if dt := int64(s.Covered(i)); dt > 0 {
			level[0].Vals[i] = float64(p.ReadyTicks) / float64(dt)
			level[1].Vals[i] = float64(p.BusyTicks) / float64(dt)
		}
		events[0].Vals[i] = float64(p.Retries)
		events[1].Vals[i] = float64(p.Blocks)
		events[2].Vals[i] = float64(p.Preempts)
		events[3].Vals[i] = float64(p.Completions)
	}
	return []Chart{
		LineChart("queue depth and processor occupancy over virtual time", xs, level, "ms", "level"),
		LineChart("events per window over virtual time", xs, events, "ms", "events"),
	}
}

// predChart renders the predicted-vs-observed commits-per-window
// overlay; nil when the run has no prediction or nothing committed.
func predChart(run *Run) (*Chart, string) {
	o := run.Pred
	if o == nil || o.Fit.Windows == 0 {
		return nil, ""
	}
	xs := make([]float64, len(o.Points))
	ser := []LineSeries{
		{Name: "observed commits", Vals: make([]float64, len(o.Points))},
		{Name: "predicted commits", Vals: make([]float64, len(o.Points))},
	}
	for i, p := range o.Points {
		xs[i] = float64(p.Start) / 1000 // ms
		ser[0].Vals[i] = float64(p.Observed)
		ser[1].Vals[i] = p.Predicted
	}
	c := LineChart("throughput: observed vs analytic prediction", xs, ser, "ms", "commits")
	note := "fit busy/commit = " + fmtFloat(o.Fit.Alpha) + " + " + fmtFloat(o.Fit.Beta) +
		"·(retries/commit) over " + strconv.Itoa(o.Fit.Windows) +
		" windows · relative error " + fmtFloat(o.RelErr)
	return &c, note
}

// opTable renders the per-operation retry-tail panel.
func opTable(run *Run) *Table {
	if len(run.OpDists) == 0 {
		return nil
	}
	t := &Table{
		Title:   "per-operation retry tail (attempts per committed access)",
		Columns: []string{"op", "ops", "mean", "p95", "p99", "p999", "max", "fail rate"},
	}
	for i := range run.OpDists {
		d := &run.OpDists[i]
		s := d.Attempts.Summarize()
		t.Rows = append(t.Rows, []string{
			d.Name, strconv.FormatInt(d.Ops, 10), fmtFloat(s.Mean),
			strconv.FormatInt(s.P95, 10), strconv.FormatInt(s.P99, 10),
			strconv.FormatInt(s.P999, 10), strconv.FormatInt(s.Max, 10),
			fmtFloat(d.FailureRate()),
		})
	}
	return t
}

// buildPage assembles the template model.
func (r *Report) buildPage() *page {
	p := &page{
		Title:    r.Title,
		Subtitle: "workload " + r.Workload + " · profile " + r.Profile,
		Summary:  r.SummaryTable(),
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		caption := "sim " + run.Sim + " · " + run.Mode + " · " + strconv.Itoa(len(run.Seeds)) + " seed(s)"
		rv := runView{
			Name:    run.Name,
			Caption: caption,
			Tiles: []tile{
				{"jobs", strconv.FormatInt(run.Jobs, 10)},
				{"completed", strconv.FormatInt(run.Completed, 10)},
				{"aborted", strconv.FormatInt(run.Aborted, 10)},
				{"violations", strconv.Itoa(len(run.Violations()))},
			},
			Charts:     run.seriesCharts(),
			OpTable:    opTable(run),
			Tasks:      taskTable(run),
			Violations: run.Violations(),
		}
		rv.Pred, rv.PredNote = predChart(run)
		for _, d := range run.Dists {
			s := d.Hist.Summarize()
			bound := "-"
			if d.Bound >= 0 {
				bound = strconv.FormatInt(d.Bound, 10)
			}
			rv.Dists = append(rv.Dists, distView{
				Title: d.Title,
				Chart: HistChart(d),
				Summary: []string{
					strconv.FormatInt(s.N, 10), fmtFloat(s.Mean),
					strconv.FormatInt(s.P50, 10), strconv.FormatInt(s.P90, 10),
					strconv.FormatInt(s.P95, 10), strconv.FormatInt(s.P99, 10),
					strconv.FormatInt(s.P999, 10),
					strconv.FormatInt(s.Max, 10), bound,
				},
				Bounded: d.Bound >= 0,
				Held:    d.Bound >= 0 && s.Max <= d.Bound,
			})
		}
		p.Runs = append(p.Runs, rv)
	}
	for i := range r.Figs {
		f := &r.Figs[i]
		chart, note := figChart(f)
		p.Figs = append(p.Figs, figView{Table: f, Chart: chart, Note: note})
	}
	return p
}

// taskTable renders the per-task bound comparison as a Table.
func taskTable(run *Run) *Table {
	if run.Check == nil || len(run.Check.Tasks) == 0 {
		return nil
	}
	t := &Table{
		Title:   "per-task observed extremes vs analytical bounds",
		Columns: []string{"task", "jobs", "completed", "max retries", "retry bound", "max sojourn", "sojourn bound"},
	}
	for _, tr := range run.Check.Tasks {
		rb, sb := "-", "-"
		if tr.RetryBound >= 0 {
			rb = strconv.FormatInt(tr.RetryBound, 10)
		}
		if tr.SojournBound >= 0 {
			sb = rtime.Duration(tr.SojournBound).String()
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(tr.Task), strconv.Itoa(tr.Jobs), strconv.Itoa(tr.Completed),
			strconv.FormatInt(tr.MaxRetries, 10), rb,
			rtime.Duration(tr.MaxSojourn).String(), sb,
		})
	}
	return t
}

// htmlTmpl is the whole page. Colors are the validated reference
// palette: categorical slots in fixed order, status-critical reserved
// for bound lines and violations, chrome inks recessive, dark mode a
// selected set of steps rather than an automatic flip.
var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}}</title>
<style>
.viz-root {
  color-scheme: light;
  --surface:    #fcfcfb;
  --plane:      #f9f9f7;
  --ink:        #0b0b0b;
  --ink-2:      #52514e;
  --ink-muted:  #898781;
  --grid:       #e1e0d9;
  --axis:       #c3c2b7;
  --border:     rgba(11,11,11,0.10);
  --series-1:   #2a78d6;
  --series-2:   #eb6834;
  --series-3:   #1baf7a;
  --series-4:   #eda100;
  --status-critical: #d03b3b;
  --status-good-text: #006300;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface:    #1a1a19;
    --plane:      #0d0d0d;
    --ink:        #ffffff;
    --ink-2:      #c3c2b7;
    --ink-muted:  #898781;
    --grid:       #2c2c2a;
    --axis:       #383835;
    --border:     rgba(255,255,255,0.10);
    --series-1:   #3987e5;
    --series-2:   #d95926;
    --series-3:   #199e70;
    --series-4:   #c98500;
    --status-good-text: #0ca30c;
  }
}
.viz-root { margin: 0; background: var(--plane); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 820px; margin: 0 auto; padding: 24px 16px 64px; }
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 17px; margin: 36px 0 4px; }
h3 { font-size: 14px; margin: 20px 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.caption { color: var(--ink-muted); font-size: 12px; margin: 0 0 10px; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 10px 0; overflow-x: auto; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 10px 0; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 96px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .l { color: var(--ink-muted); font-size: 12px; }
table { border-collapse: collapse; font-size: 12.5px; width: 100%; }
th { text-align: left; color: var(--ink-2); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
  font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0 2px;
  font-size: 12px; color: var(--ink-2); }
.legend .chip { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.chip.c-series-1 { background: var(--series-1); }
.chip.c-series-2 { background: var(--series-2); }
.chip.c-series-3 { background: var(--series-3); }
.chip.c-series-4 { background: var(--series-4); }
.chip.c-status-critical { background: var(--status-critical); }
.ok { color: var(--status-good-text); font-weight: 600; }
.viol { color: var(--status-critical); font-weight: 600; }
ul.viol-list { margin: 6px 0; padding-left: 20px; color: var(--status-critical); }
svg { max-width: 100%; height: auto; display: block; }
</style>
</head>
<body class="viz-root">
<main>
<h1>{{.Title}}</h1>
<p class="sub">{{.Subtitle}}</p>

<h2>Summary</h2>
<p class="caption">{{.Summary.Title}} — the table view of every chart below</p>
<div class="card"><table>
<tr>{{range .Summary.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Summary.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table></div>

{{range .Runs}}
<h2 id="{{.Name}}">{{.Name}}</h2>
<p class="caption">{{.Caption}}</p>
<div class="tiles">{{range .Tiles}}<div class="tile"><div class="v">{{.Value}}</div><div class="l">{{.Label}}</div></div>{{end}}</div>
{{if .Violations}}<p class="viol">bound violations</p><ul class="viol-list">{{range .Violations}}<li>{{.}}</li>{{end}}</ul>{{end}}
{{range .Dists}}
<h3>{{.Title}}{{if .Bounded}}{{if .Held}} <span class="ok">· bound held</span>{{else}} <span class="viol">· bound exceeded</span>{{end}}{{end}}</h3>
<div class="card">
<div class="legend">{{range .Chart.Legend}}<span><span class="chip c-{{.Class}}"></span>{{.Label}}</span>{{end}}</div>
{{.Chart.SVG}}
<table><tr><th>n</th><th>mean</th><th>p50</th><th>p90</th><th>p95</th><th>p99</th><th>p999</th><th>max</th><th>bound</th></tr>
<tr>{{range .Summary}}<td>{{.}}</td>{{end}}</tr></table>
</div>
{{end}}
{{range .Charts}}
<div class="card">
<div class="legend">{{range .Legend}}<span><span class="chip c-{{.Class}}"></span>{{.Label}}</span>{{end}}</div>
{{.SVG}}
</div>
{{end}}
{{if .Pred}}
<h3>throughput: observed vs analytic prediction</h3>
<div class="card">
<div class="legend">{{range .Pred.Legend}}<span><span class="chip c-{{.Class}}"></span>{{.Label}}</span>{{end}}</div>
{{.Pred.SVG}}
<p class="caption">{{.PredNote}}</p>
</div>
{{end}}
{{if .OpTable}}
<h3>{{.OpTable.Title}}</h3>
<div class="card"><table>
<tr>{{range .OpTable.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .OpTable.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table></div>
{{end}}
{{if .Tasks}}
<h3>{{.Tasks.Title}}</h3>
<div class="card"><table>
<tr>{{range .Tasks.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Tasks.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table></div>
{{end}}
{{end}}

{{range .Figs}}
<h2 id="{{.Table.ID}}">{{.Table.ID}} — {{.Table.Title}}</h2>
{{if .Table.Note}}<p class="caption">{{.Table.Note}}</p>{{end}}
{{if .Chart}}
<div class="card">
<div class="legend">{{range .Chart.Legend}}<span><span class="chip c-{{.Class}}"></span>{{.Label}}</span>{{end}}</div>
{{.Chart.SVG}}
{{if .Note}}<p class="caption">{{.Note}}</p>{{end}}
</div>
{{end}}
<div class="card"><table>
<tr>{{range .Table.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Table.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table></div>
{{end}}

</main>
</body>
</html>
`))

// WriteHTML renders the report as one self-contained page.
func (r *Report) WriteHTML(w io.Writer) error {
	return htmlTmpl.Execute(w, r.buildPage())
}
