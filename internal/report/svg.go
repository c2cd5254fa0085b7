package report

import (
	"fmt"
	"html/template"
	"math"
	"strconv"
	"strings"

	"repro/internal/metrics/hist"
)

// Chart geometry shared by every figure: one y-axis, recessive
// hairline grid, thin marks. Colors are CSS custom properties declared
// in the HTML shell, so the same SVG adapts to light and dark mode.
const (
	chartW  = 720
	chartH  = 240
	marginL = 58
	marginR = 14
	marginT = 14
	marginB = 34
)

// LegendItem is one legend chip rendered by the HTML shell next to a
// chart (identity is never color-alone: the chip pairs swatch + label).
type LegendItem struct {
	Label string
	Color string // CSS custom property name, e.g. "--series-1"
}

// Class is the chip class suffix for the HTML shell (html/template's
// CSS filter rejects a raw custom-property name in a style attribute).
func (l LegendItem) Class() string { return strings.TrimPrefix(l.Color, "--") }

// Chart is a rendered SVG plus its legend.
type Chart struct {
	SVG    template.HTML
	Legend []LegendItem
}

// seriesColors is the fixed categorical assignment order (never
// cycled); charts in this report use at most four series.
var seriesColors = []string{"--series-1", "--series-2", "--series-3", "--series-4"}

// fmtCoord renders an SVG coordinate.
func fmtCoord(v float64) string { return formatFixed(v, 2) }

// fmtTick renders an axis tick value compactly.
func fmtTick(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// niceStep returns a 1/2/5·10^k step that splits max into ≤ 5 ticks.
func niceStep(max float64) float64 {
	if max <= 0 {
		return 1
	}
	raw := max / 4
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	switch {
	case raw/mag <= 1:
		return mag
	case raw/mag <= 2:
		return 2 * mag
	case raw/mag <= 5:
		return 5 * mag
	default:
		return 10 * mag
	}
}

// yTicks returns ascending tick values 0..max.
func yTicks(max float64) []float64 {
	step := niceStep(max)
	var ts []float64
	for v := 0.0; v <= max*(1+1e-9); v += step {
		ts = append(ts, v)
	}
	return ts
}

// esc escapes text destined for SVG content.
func esc(s string) string { return template.HTMLEscapeString(s) }

// svgOpen writes the SVG root with an accessible title.
func svgOpen(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img" aria-label="%s" font-family="system-ui, -apple-system, 'Segoe UI', sans-serif" font-size="11">`,
		chartW, chartH, chartW, chartH, esc(title))
	b.WriteByte('\n')
}

// axisFrame draws the grid, baseline, and y tick labels for a 0-based
// y scale, returning the y→pixel mapping.
func axisFrame(b *strings.Builder, yMax float64, yLabel string) func(float64) float64 {
	if yMax <= 0 {
		yMax = 1
	}
	plotH := float64(chartH - marginT - marginB)
	yPix := func(v float64) float64 { return float64(chartH-marginB) - v/yMax*plotH }
	for _, tv := range yTicks(yMax) {
		y := yPix(tv)
		fmt.Fprintf(b, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="var(--grid)" stroke-width="1"/>`,
			marginL, fmtCoord(y), chartW-marginR, fmtCoord(y))
		fmt.Fprintf(b, `<text x="%d" y="%s" text-anchor="end" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">%s</text>`,
			marginL-6, fmtCoord(y+3.5), fmtTick(tv))
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

// bucketLabel renders one histogram bucket's range.
func bucketLabel(lo, hi int64, first bool) string {
	if first || lo == math.MinInt64 {
		return "≤" + strconv.FormatInt(hi, 10)
	}
	if lo+1 >= hi {
		return strconv.FormatInt(hi, 10)
	}
	return strconv.FormatInt(lo+1, 10) + "–" + strconv.FormatInt(hi, 10)
}

// HistChart renders a distribution as a bar chart, overlaying the
// analytic bound as a labeled reference line when one applies.
func HistChart(d Dist) Chart {
	var b strings.Builder
	svgOpen(&b, d.Title)
	buckets := d.Hist.Buckets()
	var maxCount int64
	for _, bk := range buckets {
		if bk.Count > maxCount {
			maxCount = bk.Count
		}
	}
	yPix := axisFrame(&b, float64(maxCount), "jobs")
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
			label := bucketLabel(bk.Lo, bk.Hi, i == 0)
			fmt.Fprintf(&b, `<g><title>%s %s: %d jobs</title><rect x="%s" y="%s" width="%s" height="%s" rx="2" fill="var(--series-1)"/></g>`,
				label, esc(d.Unit), bk.Count,
				fmtCoord(x+gap/2), fmtCoord(y), fmtCoord(slot-gap), fmtCoord(h))
			b.WriteByte('\n')
			if i%labelEvery == 0 {
				fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="middle" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">%s</text>`,
					fmtCoord(x+slot/2), chartH-marginB+14, esc(label))
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
				fmtCoord(bx), marginT, fmtCoord(bx), chartH-marginB)
			fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="%s" fill="var(--status-critical)">%s</text>`,
				fmtCoord(tx), marginT+11, anchor, esc(label))
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
	return Chart{SVG: template.HTML(b.String()), Legend: legend}
}

// boundX maps a bound value onto the categorical bucket axis:
// piecewise linear inside the bucket containing it, clamped to the
// right plot edge when the bound is beyond every observed bucket
// (over-plotting the bound off-scale would imply observed values near
// it; clamping with the printed value keeps the line honest).
func boundX(buckets []Bucket, bound int64, slot float64) float64 {
	for i, bk := range buckets {
		if bound <= bk.Hi {
			lo := bk.Lo
			frac := 1.0
			if lo != math.MinInt64 && bk.Hi > lo {
				frac = float64(bound-lo) / float64(bk.Hi-lo)
			}
			return float64(marginL) + slot*(float64(i)+frac)
		}
	}
	return float64(chartW - marginR - 1)
}

// Bucket aliases the histogram bucket type used by boundX.
type Bucket = hist.Bucket

// LineSeries is one line of a LineChart.
type LineSeries struct {
	Name string
	Vals []float64
}

// LineChart renders one or more series over a shared numeric x axis:
// 2px lines, ≥8px-target point markers with native tooltips, direct
// labels at line ends plus legend chips for identity.
func LineChart(title string, xs []float64, ser []LineSeries, xLabel, yLabel string) Chart {
	var b strings.Builder
	svgOpen(&b, title)
	var yMax float64
	for _, s := range ser {
		for _, v := range s.Vals {
			if v > yMax {
				yMax = v
			}
		}
	}
	yPix := axisFrame(&b, yMax, yLabel)
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
			fmtCoord(xPix(tv)), chartH-marginB+14, fmtTick(tv))
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
			pts = append(pts, fmtCoord(xPix(xs[i]))+","+fmtCoord(yPix(v)))
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
				esc(s.Name), fmtTick(xs[i]), esc(xLabel), fmtTick(v), esc(yLabel),
				fmtCoord(xPix(xs[i])), fmtCoord(yPix(v)),
				fmtCoord(xPix(xs[i])), fmtCoord(yPix(v)), color)
			b.WriteByte('\n')
		}
		// Direct label at the line's end (≤ 4 series per chart by design).
		if len(s.Vals) > 0 && len(ser) > 1 {
			last := len(s.Vals) - 1
			if last >= len(xs) {
				last = len(xs) - 1
			}
			fmt.Fprintf(&b, `<text x="%s" y="%s" text-anchor="end" fill="var(--ink)" font-size="10">%s</text>`,
				fmtCoord(xPix(xs[last])-6), fmtCoord(yPix(s.Vals[last])-5), esc(s.Name))
			b.WriteByte('\n')
		}
	}
	b.WriteString("</svg>")
	return Chart{SVG: template.HTML(b.String()), Legend: legend}
}
