package report

import (
	"fmt"
	"html/template"
	"math"
	"strconv"
	"strings"
)

// This file keeps the string-building page renderer that appendHTML
// replaced, as the oracle the differential tests hold it to: charts
// built with fmt into a strings.Builder and returned as template.HTML,
// and one template printing them. It renders the same page model, so
// the tests compare rendering alone.

// oracleChart is a rendered SVG plus its legend.
type oracleChart struct {
	SVG    template.HTML
	Legend []LegendItem
}

// The oracle's page model: the page's views with each Chart rendered.
type (
	oracleDistView struct {
		Title   string
		Chart   oracleChart
		Summary []string
		Bounded bool
		Held    bool
	}
	oracleRunView struct {
		Name       string
		Caption    string
		Tiles      []tile
		Dists      []oracleDistView
		Charts     []oracleChart
		Pred       *oracleChart
		PredNote   string
		OpTable    *Table
		Tasks      *Table
		Violations []string
	}
	oracleFigView struct {
		Table *Table
		Chart *oracleChart
		Note  string
	}
	oraclePage struct {
		Title    string
		Subtitle string
		Summary  *Table
		Runs     []oracleRunView
		Figs     []oracleFigView
	}
)

// oracleRender renders c the old way.
func oracleRender(c *Chart) *oracleChart {
	var oc oracleChart
	if c.dist != nil {
		oc = oracleHistChart(*c.dist)
	} else {
		l := c.line
		oc = oracleLineChart(l.title, l.xs, l.ser, l.xLabel, l.yLabel)
	}
	return &oc
}

// oracleHTML renders r's page through the oracle.
func oracleHTML(r *Report) ([]byte, error) {
	p := r.buildPage()
	op := oraclePage{Title: p.Title, Subtitle: p.Subtitle, Summary: p.Summary}
	for _, rv := range p.Runs {
		orv := oracleRunView{
			Name: rv.Name, Caption: rv.Caption, Tiles: rv.Tiles, PredNote: rv.PredNote,
			OpTable: rv.OpTable, Tasks: rv.Tasks, Violations: rv.Violations,
		}
		for i := range rv.Dists {
			d := &rv.Dists[i]
			orv.Dists = append(orv.Dists, oracleDistView{
				Title: d.Title, Chart: *oracleRender(&d.Chart), Summary: d.Summary,
				Bounded: d.Bounded, Held: d.Held,
			})
		}
		for i := range rv.Charts {
			orv.Charts = append(orv.Charts, *oracleRender(&rv.Charts[i]))
		}
		if rv.Pred != nil {
			orv.Pred = oracleRender(rv.Pred)
		}
		op.Runs = append(op.Runs, orv)
	}
	for _, f := range p.Figs {
		of := oracleFigView{Table: f.Table, Note: f.Note}
		if f.Chart != nil {
			of.Chart = oracleRender(f.Chart)
		}
		op.Figs = append(op.Figs, of)
	}
	var b strings.Builder
	err := oracleTmpl.Execute(&b, &op)
	return []byte(b.String()), err
}

// oracleCoord renders an SVG coordinate.
func oracleCoord(v float64) string { return formatFixed(v, 2) }

// oracleTick renders an axis tick value compactly.
func oracleTick(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// oracleYTicks returns ascending tick values 0..max.
func oracleYTicks(max float64) []float64 {
	step := niceStep(max)
	var ts []float64
	for v := 0.0; v <= max*(1+1e-9); v += step {
		ts = append(ts, v)
	}
	return ts
}

// oracleSVGOpen writes the SVG root with an accessible title.
func oracleSVGOpen(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img" aria-label="%s" font-family="system-ui, -apple-system, 'Segoe UI', sans-serif" font-size="11">`,
		chartW, chartH, chartW, chartH, esc(title))
	b.WriteByte('\n')
}

// oracleAxisFrame draws the grid, baseline, and y tick labels for a 0-based
// y scale, returning the y→pixel mapping.
func oracleAxisFrame(b *strings.Builder, yMax float64, yLabel string) func(float64) float64 {
	if yMax <= 0 {
		yMax = 1
	}
	plotH := float64(chartH - marginT - marginB)
	yPix := func(v float64) float64 { return float64(chartH-marginB) - v/yMax*plotH }
	for _, tv := range oracleYTicks(yMax) {
		y := yPix(tv)
		fmt.Fprintf(b, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="var(--grid)" stroke-width="1"/>`,
			marginL, oracleCoord(y), chartW-marginR, oracleCoord(y))
		fmt.Fprintf(b, `<text x="%d" y="%s" text-anchor="end" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">%s</text>`,
			marginL-6, oracleCoord(y+3.5), oracleTick(tv))
		b.WriteByte('\n')
	}
	// Baseline above the grid hairlines.
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="var(--axis)" stroke-width="1"/>`,
		marginL, chartH-marginB, chartW-marginR, chartH-marginB)
	b.WriteByte('\n')
	if yLabel != "" {
		fmt.Fprintf(b, `<text x="%d" y="%d" fill="var(--ink-muted)">%s</text>`,
			marginL, marginT-2, esc(yLabel))
		b.WriteByte('\n')
	}
	return yPix
}

// oracleBucketLabel renders one histogram bucket's range.
func oracleBucketLabel(lo, hi int64, first bool) string {
	if first || lo == math.MinInt64 {
		return "≤" + strconv.FormatInt(hi, 10)
	}
	if lo+1 >= hi {
		return strconv.FormatInt(hi, 10)
	}
	return strconv.FormatInt(lo+1, 10) + "–" + strconv.FormatInt(hi, 10)
}

// oracleHistChart is HistChart as a string: it renders a distribution
// as a bar chart, overlaying the analytic bound as a labeled reference
// line when one applies.
func oracleHistChart(d Dist) oracleChart {
	var b strings.Builder
	oracleSVGOpen(&b, d.Title)
	buckets := d.Hist.Buckets()
	var maxCount int64
	for _, bk := range buckets {
		if bk.Count > maxCount {
			maxCount = bk.Count
		}
	}
	yPix := oracleAxisFrame(&b, float64(maxCount), "jobs")
	plotW := float64(chartW - marginL - marginR)
	n := len(buckets)
	if n > 0 {
		slot := plotW / float64(n)
		gap := 2.0 // surface gap between adjacent fills
		labelEvery := (n + 7) / 8
		for i, bk := range buckets {
			x := float64(marginL) + slot*float64(i)
			y := yPix(float64(bk.Count))
			h := float64(chartH-marginB) - y
			label := oracleBucketLabel(bk.Lo, bk.Hi, i == 0)
			fmt.Fprintf(&b, `<g><title>%s %s: %d jobs</title><rect x="%s" y="%s" width="%s" height="%s" rx="2" fill="var(--series-1)"/></g>`,
				label, esc(d.Unit), bk.Count,
				oracleCoord(x+gap/2), oracleCoord(y), oracleCoord(slot-gap), oracleCoord(h))
			b.WriteByte('\n')
			if i%labelEvery == 0 {
				fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="middle" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">%s</text>`,
					oracleCoord(x+slot/2), chartH-marginB+14, esc(label))
				b.WriteByte('\n')
			}
		}
		if d.Bound >= 0 {
			bx := boundX(buckets, d.Bound, slot)
			label := fmt.Sprintf("%s = %d", d.BoundLabel, d.Bound)
			anchor, tx := "end", bx-5
			if bx < float64(marginL)+plotW/2 {
				anchor, tx = "start", bx+5
			}
			fmt.Fprintf(&b, `<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="var(--status-critical)" stroke-width="1.5" stroke-dasharray="5 3"/>`,
				oracleCoord(bx), marginT, oracleCoord(bx), chartH-marginB)
			fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="%s" fill="var(--status-critical)">%s</text>`,
				oracleCoord(tx), marginT+11, anchor, esc(label))
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" fill="var(--ink-muted)">%s</text>`,
		chartW-marginR, chartH-marginB+28, esc(d.Unit))
	b.WriteString("</svg>")
	legend := []LegendItem{{Label: "observed jobs", Color: "--series-1"}}
	if d.Bound >= 0 {
		legend = append(legend, LegendItem{Label: d.BoundLabel, Color: "--status-critical"})
	}
	return oracleChart{SVG: template.HTML(b.String()), Legend: legend}
}

// oracleLineChart is LineChart as a string: it renders one or more
// series over a shared numeric x axis: 2px lines, ≥8px-target point
// markers with native tooltips, direct labels at line ends plus legend
// chips for identity.
func oracleLineChart(title string, xs []float64, ser []LineSeries, xLabel, yLabel string) oracleChart {
	var b strings.Builder
	oracleSVGOpen(&b, title)
	var yMax float64
	for _, s := range ser {
		for _, v := range s.Vals {
			if v > yMax {
				yMax = v
			}
		}
	}
	yPix := oracleAxisFrame(&b, yMax, yLabel)
	xMin, xMax := xs[0], xs[0]
	for _, x := range xs {
		if x < xMin {
			xMin = x
		}
		if x > xMax {
			xMax = x
		}
	}
	if xMax <= xMin {
		xMax = xMin + 1
	}
	plotW := float64(chartW - marginL - marginR)
	xPix := func(v float64) float64 { return float64(marginL) + (v-xMin)/(xMax-xMin)*plotW }
	// x ticks: first, middle, last.
	for _, tv := range []float64{xMin, (xMin + xMax) / 2, xMax} {
		fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="middle" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">%s</text>`,
			oracleCoord(xPix(tv)), chartH-marginB+14, oracleTick(tv))
		b.WriteByte('\n')
	}
	if xLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" fill="var(--ink-muted)">%s</text>`,
			chartW-marginR, chartH-marginB+28, esc(xLabel))
		b.WriteByte('\n')
	}
	legend := make([]LegendItem, 0, len(ser))
	for si, s := range ser {
		color := seriesColors[si%len(seriesColors)]
		legend = append(legend, LegendItem{Label: s.Name, Color: color})
		var pts []string
		for i, v := range s.Vals {
			if i >= len(xs) {
				break
			}
			pts = append(pts, oracleCoord(xPix(xs[i]))+","+oracleCoord(yPix(v)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="var(%s)" stroke-width="2" stroke-linejoin="round"/>`,
			strings.Join(pts, " "), color)
		b.WriteByte('\n')
		for i, v := range s.Vals {
			if i >= len(xs) {
				break
			}
			// 2.5px mark inside an invisible 9px hit target for the tooltip.
			fmt.Fprintf(&b, `<g><title>%s — %s %s: %s %s</title><circle cx="%s" cy="%s" r="4.5" fill="transparent"/><circle cx="%s" cy="%s" r="2.5" fill="var(%s)" stroke="var(--surface)" stroke-width="1"/></g>`,
				esc(s.Name), oracleTick(xs[i]), esc(xLabel), oracleTick(v), esc(yLabel),
				oracleCoord(xPix(xs[i])), oracleCoord(yPix(v)),
				oracleCoord(xPix(xs[i])), oracleCoord(yPix(v)), color)
			b.WriteByte('\n')
		}
		// Direct label at the line's end (≤ 4 series per chart by design).
		if len(s.Vals) > 0 && len(ser) > 1 {
			last := len(s.Vals) - 1
			if last >= len(xs) {
				last = len(xs) - 1
			}
			fmt.Fprintf(&b, `<text x="%s" y="%s" text-anchor="end" fill="var(--ink)" font-size="10">%s</text>`,
				oracleCoord(xPix(xs[last])-6), oracleCoord(yPix(s.Vals[last])-5), esc(s.Name))
			b.WriteByte('\n')
		}
	}
	b.WriteString("</svg>")
	return oracleChart{SVG: template.HTML(b.String()), Legend: legend}
}

// oracleTmpl is htmlTmpl as one template that prints each chart's
// SVG string. Colors are the validated reference
// palette: categorical slots in fixed order, status-critical reserved
// for bound lines and violations, chrome inks recessive, dark mode a
// selected set of steps rather than an automatic flip.
var oracleTmpl = template.Must(template.New("oracle").Parse(`<!DOCTYPE html>
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
