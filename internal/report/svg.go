package report

import (
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

// Chart is one chart of the page: the legend the HTML shell renders
// next to it and the inputs its SVG is drawn from. The SVG itself is
// appended straight into the page buffer (appendSVG), so no chart
// exists as a string of its own. Exactly one of line and dist is set.
type Chart struct {
	Legend []LegendItem
	line   *lineSpec
	dist   *Dist
}

// lineSpec holds one LineChart's arguments.
type lineSpec struct {
	title          string
	xs             []float64
	ser            []LineSeries
	xLabel, yLabel string
}

// newLineChart returns the LineChart of the arguments with its legend.
func newLineChart(title string, xs []float64, ser []LineSeries, xLabel, yLabel string) Chart {
	return Chart{
		Legend: lineLegend(ser),
		line:   &lineSpec{title: title, xs: xs, ser: ser, xLabel: xLabel, yLabel: yLabel},
	}
}

// newHistChart returns the HistChart of d with its legend.
func newHistChart(d Dist) Chart { return Chart{Legend: histLegend(d), dist: &d} }

// appendSVG appends the chart's SVG to dst.
func (c *Chart) appendSVG(dst []byte) []byte {
	if c.dist != nil {
		return HistChart(dst, *c.dist)
	}
	l := c.line
	return LineChart(dst, l.title, l.xs, l.ser, l.xLabel, l.yLabel)
}

// seriesColors is the fixed categorical assignment order (never
// cycled); charts in this report use at most four series.
var seriesColors = []string{"--series-1", "--series-2", "--series-3", "--series-4"}

// appendCoord appends an SVG coordinate.
func appendCoord(dst []byte, v float64) []byte { return appendFixed(dst, v, 2) }

// appendTick appends an axis tick value compactly.
func appendTick(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', 4, 64) }

// appendInt appends a decimal integer.
func appendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

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

// esc escapes text destined for SVG content.
func esc(s string) string { return template.HTMLEscapeString(s) }

// svgOpen appends the SVG root with an accessible title.
func svgOpen(dst []byte, title string) []byte {
	dst = append(dst, `<svg viewBox="0 0 `...)
	dst = appendInt(dst, chartW)
	dst = append(dst, ' ')
	dst = appendInt(dst, chartH)
	dst = append(dst, `" width="`...)
	dst = appendInt(dst, chartW)
	dst = append(dst, `" height="`...)
	dst = appendInt(dst, chartH)
	dst = append(dst, `" role="img" aria-label="`...)
	dst = append(dst, esc(title)...)
	return append(dst, `" font-family="system-ui, -apple-system, 'Segoe UI', sans-serif" font-size="11">`+"\n"...)
}

// yScale maps a value onto a 0-based y axis ending at max.
type yScale struct{ max float64 }

func (s yScale) pix(v float64) float64 {
	return float64(chartH-marginB) - v/s.max*float64(chartH-marginT-marginB)
}

// axisFrame appends the grid, baseline, and y tick labels for a
// 0-based y scale, and returns the y→pixel mapping.
func axisFrame(dst []byte, yMax float64, yLabel string) ([]byte, yScale) {
	if yMax <= 0 {
		yMax = 1
	}
	ys := yScale{max: yMax}
	step := niceStep(yMax)
	for tv := 0.0; tv <= yMax*(1+1e-9); tv += step {
		y := ys.pix(tv)
		dst = append(dst, `<line x1="`...)
		dst = appendInt(dst, marginL)
		dst = append(dst, `" y1="`...)
		dst = appendCoord(dst, y)
		dst = append(dst, `" x2="`...)
		dst = appendInt(dst, chartW-marginR)
		dst = append(dst, `" y2="`...)
		dst = appendCoord(dst, y)
		dst = append(dst, `" stroke="var(--grid)" stroke-width="1"/><text x="`...)
		dst = appendInt(dst, marginL-6)
		dst = append(dst, `" y="`...)
		dst = appendCoord(dst, y+3.5)
		dst = append(dst, `" text-anchor="end" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">`...)
		dst = appendTick(dst, tv)
		dst = append(dst, "</text>\n"...)
	}
	// Baseline above the grid hairlines.
	dst = append(dst, `<line x1="`...)
	dst = appendInt(dst, marginL)
	dst = append(dst, `" y1="`...)
	dst = appendInt(dst, chartH-marginB)
	dst = append(dst, `" x2="`...)
	dst = appendInt(dst, chartW-marginR)
	dst = append(dst, `" y2="`...)
	dst = appendInt(dst, chartH-marginB)
	dst = append(dst, `" stroke="var(--axis)" stroke-width="1"/>`+"\n"...)
	if yLabel != "" {
		dst = append(dst, `<text x="`...)
		dst = appendInt(dst, marginL)
		dst = append(dst, `" y="`...)
		dst = appendInt(dst, marginT-2)
		dst = append(dst, `" fill="var(--ink-muted)">`...)
		dst = append(dst, esc(yLabel)...)
		dst = append(dst, "</text>\n"...)
	}
	return dst, ys
}

// appendBucketLabel appends one histogram bucket's range. The label
// holds digits, '-', '≤' and '–' only, so it needs no escaping.
func appendBucketLabel(dst []byte, lo, hi int64, first bool) []byte {
	if first || lo == math.MinInt64 {
		return appendInt(append(dst, "≤"...), hi)
	}
	if lo+1 >= hi {
		return appendInt(dst, hi)
	}
	return appendInt(append(appendInt(dst, lo+1), "–"...), hi)
}

// histLegend is the legend of d's HistChart.
func histLegend(d Dist) []LegendItem {
	legend := []LegendItem{{Label: "observed jobs", Color: "--series-1"}}
	if d.Bound >= 0 {
		legend = append(legend, LegendItem{Label: d.BoundLabel, Color: "--status-critical"})
	}
	return legend
}

// HistChart appends d's distribution as a bar chart, overlaying the
// analytic bound as a labeled reference line when one applies.
func HistChart(dst []byte, d Dist) []byte {
	dst = svgOpen(dst, d.Title)
	buckets := d.Hist.Buckets()
	var maxCount int64
	for _, bk := range buckets {
		if bk.Count > maxCount {
			maxCount = bk.Count
		}
	}
	dst, ys := axisFrame(dst, float64(maxCount), "jobs")
	unit := esc(d.Unit)
	plotW := float64(chartW - marginL - marginR)
	n := len(buckets)
	if n > 0 {
		slot := plotW / float64(n)
		gap := 2.0 // surface gap between adjacent fills
		labelEvery := (n + 7) / 8
		for i, bk := range buckets {
			x := float64(marginL) + slot*float64(i)
			y := ys.pix(float64(bk.Count))
			h := float64(chartH-marginB) - y
			dst = append(dst, "<g><title>"...)
			labelAt := len(dst)
			dst = appendBucketLabel(dst, bk.Lo, bk.Hi, i == 0)
			label := dst[labelAt:]
			dst = append(dst, ' ')
			dst = append(dst, unit...)
			dst = append(dst, ": "...)
			dst = appendInt(dst, bk.Count)
			dst = append(dst, ` jobs</title><rect x="`...)
			dst = appendCoord(dst, x+gap/2)
			dst = append(dst, `" y="`...)
			dst = appendCoord(dst, y)
			dst = append(dst, `" width="`...)
			dst = appendCoord(dst, slot-gap)
			dst = append(dst, `" height="`...)
			dst = appendCoord(dst, h)
			dst = append(dst, `" rx="2" fill="var(--series-1)"/></g>`+"\n"...)
			if i%labelEvery == 0 {
				dst = append(dst, `<text x="`...)
				dst = appendCoord(dst, x+slot/2)
				dst = append(dst, `" y="`...)
				dst = appendInt(dst, chartH-marginB+14)
				dst = append(dst, `" text-anchor="middle" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">`...)
				dst = append(dst, label...)
				dst = append(dst, "</text>\n"...)
			}
		}
		if d.Bound >= 0 {
			bx := boundX(buckets, d.Bound, slot)
			anchor, tx := "end", bx-5
			if bx < float64(marginL)+plotW/2 {
				anchor, tx = "start", bx+5
			}
			dst = append(dst, `<line x1="`...)
			dst = appendCoord(dst, bx)
			dst = append(dst, `" y1="`...)
			dst = appendInt(dst, marginT)
			dst = append(dst, `" x2="`...)
			dst = appendCoord(dst, bx)
			dst = append(dst, `" y2="`...)
			dst = appendInt(dst, chartH-marginB)
			dst = append(dst, `" stroke="var(--status-critical)" stroke-width="1.5" stroke-dasharray="5 3"/><text x="`...)
			dst = appendCoord(dst, tx)
			dst = append(dst, `" y="`...)
			dst = appendInt(dst, marginT+11)
			dst = append(dst, `" text-anchor="`...)
			dst = append(dst, anchor...)
			dst = append(dst, `" fill="var(--status-critical)">`...)
			dst = append(dst, esc(d.BoundLabel+" = "+strconv.FormatInt(d.Bound, 10))...)
			dst = append(dst, "</text>\n"...)
		}
	}
	dst = append(dst, `<text x="`...)
	dst = appendInt(dst, chartW-marginR)
	dst = append(dst, `" y="`...)
	dst = appendInt(dst, chartH-marginB+28)
	dst = append(dst, `" text-anchor="end" fill="var(--ink-muted)">`...)
	dst = append(dst, unit...)
	return append(dst, "</text></svg>"...)
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

// lineLegend is the legend of a LineChart over ser.
func lineLegend(ser []LineSeries) []LegendItem {
	legend := make([]LegendItem, len(ser))
	for si, s := range ser {
		legend[si] = LegendItem{Label: s.Name, Color: seriesColors[si%len(seriesColors)]}
	}
	return legend
}

// LineChart appends one or more series over a shared numeric x axis:
// 2px lines, ≥8px-target point markers with native tooltips, direct
// labels at line ends (the legend chips are lineLegend). Labels are
// escaped once per chart, and each point's coordinates are formatted
// once, into the polyline, and copied from there into its markers.
func LineChart(dst []byte, title string, xs []float64, ser []LineSeries, xLabel, yLabel string) []byte {
	dst = svgOpen(dst, title)
	var yMax float64
	for _, s := range ser {
		for _, v := range s.Vals {
			if v > yMax {
				yMax = v
			}
		}
	}
	dst, ys := axisFrame(dst, yMax, yLabel)
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
	for _, tv := range [...]float64{xMin, (xMin + xMax) / 2, xMax} {
		dst = append(dst, `<text x="`...)
		dst = appendCoord(dst, xPix(tv))
		dst = append(dst, `" y="`...)
		dst = appendInt(dst, chartH-marginB+14)
		dst = append(dst, `" text-anchor="middle" fill="var(--ink-muted)" style="font-variant-numeric: tabular-nums">`...)
		dst = appendTick(dst, tv)
		dst = append(dst, "</text>\n"...)
	}
	xl, yl := esc(xLabel), esc(yLabel)
	if xLabel != "" {
		dst = append(dst, `<text x="`...)
		dst = appendInt(dst, chartW-marginR)
		dst = append(dst, `" y="`...)
		dst = appendInt(dst, chartH-marginB+28)
		dst = append(dst, `" text-anchor="end" fill="var(--ink-muted)">`...)
		dst = append(dst, xl...)
		dst = append(dst, "</text>\n"...)
	}
	// pts holds, per point, where its "x,y" pair starts in dst, where
	// the comma sits and where it ends.
	pts := make([]int, 0, 3*len(xs))
	for si, s := range ser {
		color := seriesColors[si%len(seriesColors)]
		name := esc(s.Name)
		vals := s.Vals
		if len(vals) > len(xs) {
			vals = vals[:len(xs)]
		}
		pts = pts[:0]
		dst = append(dst, `<polyline points="`...)
		for i, v := range vals {
			if i > 0 {
				dst = append(dst, ' ')
			}
			start := len(dst)
			dst = appendCoord(dst, xPix(xs[i]))
			comma := len(dst)
			dst = appendCoord(append(dst, ','), ys.pix(v))
			pts = append(pts, start, comma, len(dst))
		}
		dst = append(dst, `" fill="none" stroke="var(`...)
		dst = append(dst, color...)
		dst = append(dst, `)" stroke-width="2" stroke-linejoin="round"/>`+"\n"...)
		for i, v := range vals {
			// 2.5px mark inside an invisible 9px hit target for the tooltip.
			start, comma, end := pts[3*i], pts[3*i+1], pts[3*i+2]
			dst = append(dst, "<g><title>"...)
			dst = append(dst, name...)
			dst = append(dst, " — "...)
			dst = appendTick(dst, xs[i])
			dst = append(dst, ' ')
			dst = append(dst, xl...)
			dst = append(dst, ": "...)
			dst = appendTick(dst, v)
			dst = append(dst, ' ')
			dst = append(dst, yl...)
			x, y := dst[start:comma:comma], dst[comma+1:end:end]
			dst = append(dst, `</title><circle cx="`...)
			dst = append(dst, x...)
			dst = append(dst, `" cy="`...)
			dst = append(dst, y...)
			dst = append(dst, `" r="4.5" fill="transparent"/><circle cx="`...)
			dst = append(dst, x...)
			dst = append(dst, `" cy="`...)
			dst = append(dst, y...)
			dst = append(dst, `" r="2.5" fill="var(`...)
			dst = append(dst, color...)
			dst = append(dst, `)" stroke="var(--surface)" stroke-width="1"/></g>`+"\n"...)
		}
		// Direct label at the line's end (≤ 4 series per chart by design).
		if len(s.Vals) > 0 && len(ser) > 1 {
			last := len(s.Vals) - 1
			if last >= len(xs) {
				last = len(xs) - 1
			}
			dst = append(dst, `<text x="`...)
			dst = appendCoord(dst, xPix(xs[last])-6)
			dst = append(dst, `" y="`...)
			dst = appendCoord(dst, ys.pix(s.Vals[last])-5)
			dst = append(dst, `" text-anchor="end" fill="var(--ink)" font-size="10">`...)
			dst = append(dst, name...)
			dst = append(dst, "</text>\n"...)
		}
	}
	return append(dst, "</svg>"...)
}

// Size estimates for presizing the page buffer. Each is a little above
// the bytes the chart renders for in-range values: coordinates within
// the plot take at most six bytes ("706.00") and most ticks at most
// seven.
const (
	coordLen     = 6
	tickLen      = 7
	svgFrameLen  = 1800 // root, y grid and ticks, baseline, axis labels
	lineXAxisLen = 560  // three x ticks and the x label
	lineSerLen   = 200  // polyline frame and direct label
	linePointLen = 2*coordLen + 2 + 160 + 4*coordLen + 2*tickLen
	histBarLen   = 130 + 4*coordLen + 24
	histLabelLen = 150 + coordLen + 24
	histBoundLen = 300
)

// svgSize estimates the length of c's SVG from its point and bucket
// counts.
func (c *Chart) svgSize() int {
	if d := c.dist; d != nil {
		n := len(d.Hist.Buckets())
		return svgFrameLen + len(d.Title) + 2*len(d.Unit) + histBoundLen + len(d.BoundLabel) +
			n*(histBarLen+len(d.Unit)) + 9*histLabelLen // ≤ 9 x labels: every ⌈n/8⌉th bucket
	}
	l := c.line
	n := lineSerLen * len(l.ser)
	for _, s := range l.ser {
		pts := min(len(s.Vals), len(l.xs))
		n += 2*len(s.Name) + pts*(linePointLen+len(s.Name)+len(l.xLabel)+len(l.yLabel))
	}
	return svgFrameLen + len(l.title) + len(l.yLabel) + lineXAxisLen + len(l.xLabel) + n
}
