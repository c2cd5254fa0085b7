package report_test

import (
	"bytes"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics/hist"
	"repro/internal/report"
	"repro/internal/stoch"
)

// hostile holds every character the page escapes somewhere: the ones
// both escapers rewrite, '+' (html/template writes &#43;, esc keeps it)
// and NUL.
const hostile = "a<b & 'c' \"d\" +e\x00f"

// hostileReport puts hostile text in run names, series names, units,
// bound labels and table cells.
func hostileReport() *report.Report {
	h := hist.Exp2(64)
	for _, v := range []int64{0, 1, 1, 3, 9} {
		h.Add(v)
	}
	return &report.Report{
		Title: "t" + hostile, Profile: "p" + hostile, Workload: "w" + hostile,
		Runs: []report.Run{{
			Name: "run" + hostile, Sim: "uni", Mode: "m" + hostile, Seeds: []int64{1},
			Jobs: 5, Completed: 5,
			Dists: []report.Dist{{Name: "d", Title: "dist" + hostile, Unit: "u" + hostile,
				Hist: h, Bound: 4, BoundLabel: "bound" + hostile}},
		}},
		Figs: []report.Table{{
			ID: "fig" + hostile, Title: "title" + hostile, Note: "note" + hostile,
			Columns: []string{"x" + hostile, "s1" + hostile, "s2" + hostile},
			Rows: [][]string{
				{"1", "2", "3"},
				{"2", "4 ± 1", "5"},
				{"3", "1", "cell" + hostile},
			},
		}},
	}
}

func quickReport(t testing.TB, p experiment.Profile, figs ...string) *report.Report {
	t.Helper()
	p.Jobs = 2
	rep, err := experiment.BuildReport(p, figs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestHTMLMatchesOracle holds the block-and-append page renderer to the
// single-template, string-chart renderer it replaced, byte for byte.
func TestHTMLMatchesOracle(t *testing.T) {
	light, geo := fault.Light(), stoch.Geo()
	light.Seed, geo.Seed = 7, 7
	faulty, stochastic := experiment.Quick, experiment.Quick
	faulty.Fault, stochastic.Stoch = light, geo
	figs := []string{"fig9", "fig10", "thm2"}
	for _, c := range []struct {
		name string
		rep  func() *report.Report
	}{
		{"quick", func() *report.Report { return quickReport(t, experiment.Quick, figs...) }},
		{"quick-faults-light", func() *report.Report { return quickReport(t, faulty, figs...) }},
		{"quick-stoch-geo", func() *report.Report { return quickReport(t, stochastic, figs...) }},
		{"fabricated", func() *report.Report { return fabricate(t) }},
		{"hostile", hostileReport},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := c.rep()
			got, err := rep.HTML()
			if err != nil {
				t.Fatal(err)
			}
			want, err := report.OracleHTML(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("page differs from the oracle at byte %d of %d/%d:\ngot  %q\nwant %q",
					i, len(got), len(want), window(got, i), window(want, i))
			}
		})
	}
}

func window(b []byte, i int) []byte {
	lo, hi := max(i-60, 0), min(i+60, len(b))
	return b[lo:hi]
}

// TestHTMLEscapingPinned: html/template escapes '+' in text and
// attributes, the SVG's own escaping does not, and both replace NUL.
func TestHTMLEscapingPinned(t *testing.T) {
	out, err := hostileReport().HTML()
	if err != nil {
		t.Fatal(err)
	}
	page := string(out)
	tmplEsc := "a&lt;b &amp; &#39;c&#39; &#34;d&#34; &#43;e\uFFFDf"
	svgEsc := "a&lt;b &amp; &#39;c&#39; &#34;d&#34; +e\uFFFDf"
	for _, want := range []string{
		`<h2 id="run` + tmplEsc + `">run` + tmplEsc + `</h2>`,     // html/template: attribute and text
		`<td>cell` + tmplEsc + `</td>`,                            // html/template: table cell
		`</span>s1` + tmplEsc + `</span>`,                         // html/template: legend chip
		`aria-label="dist` + svgEsc + `"`,                         // esc: chart title
		`>u` + svgEsc + `</text></svg>`,                           // esc: unit
		`<title>s1` + svgEsc + ` — 1 x` + svgEsc + `: 2 </title>`, // esc: series and axis names
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page lacks %q", want)
		}
	}
	if strings.ContainsRune(page, 0) {
		t.Error("page carries a NUL")
	}
}

// heapAllocBytes reads the cumulative bytes the heap has allocated,
// after a GC flushes the per-P caches the metric lags behind.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestWriteHTMLAllocs: rendering a quick report allocates at most 1.5×
// the page's length — the page buffer and little else. The string
// renderer allocated about ten times the page.
func TestWriteHTMLAllocs(t *testing.T) {
	rep := quickReport(t, experiment.Quick, "fig10", "thm2")
	page, err := rep.HTML() // also escapes the template blocks once
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	heapAllocBytes()
	before := heapAllocBytes()
	for i := 0; i < runs; i++ {
		if err := rep.WriteHTML(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	perRun := (heapAllocBytes() - before) / runs
	t.Logf("page %d bytes, WriteHTML allocated %d bytes (%.2f×)", len(page), perRun, float64(perRun)/float64(len(page)))
	if limit := uint64(len(page)) * 3 / 2; perRun > limit {
		t.Fatalf("WriteHTML allocated %d bytes for a %d-byte page, want ≤ %d", perRun, len(page), limit)
	}
}

// TestHTMLBufferPresized: the size estimate holds the whole page of the
// quick report with every report figure and of the full profile, so
// the buffer never regrows, and overshoots by at most a quarter.
func TestHTMLBufferPresized(t *testing.T) {
	for _, c := range []struct {
		name string
		p    experiment.Profile
		figs []string
	}{
		{"quick", experiment.Quick, []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "faults", "thm2"}},
		{"full", experiment.Full, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := quickReport(t, c.p, c.figs...)
			page, err := rep.HTML()
			if err != nil {
				t.Fatal(err)
			}
			hint := report.HTMLSizeHint(rep)
			t.Logf("page %d bytes, buffer presized to %d (%.3f×)", len(page), hint, float64(hint)/float64(len(page)))
			if len(page) > hint {
				t.Fatalf("page of %d bytes outgrew its %d-byte buffer", len(page), hint)
			}
			if hint > len(page)*5/4 {
				t.Fatalf("buffer of %d bytes overshoots the %d-byte page by more than a quarter", hint, len(page))
			}
		})
	}
}
