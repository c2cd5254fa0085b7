package report_test

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics/hist"
	"repro/internal/metrics/series"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/trace/check"
)

// fabricate builds a small two-run report with every section populated.
func fabricate(t *testing.T) *report.Report {
	t.Helper()
	mkHist := func(vals ...int64) *hist.Hist {
		h := hist.Exp2(64)
		for _, v := range vals {
			h.Add(v)
		}
		return h
	}
	events := []trace.Event{
		{At: 0, Kind: trace.Arrival, Task: 0, Seq: 0, Object: -1},
		{At: 1, Kind: trace.Dispatch, Task: 0, Seq: 0, Object: -1},
		{At: 4, Kind: trace.Retry, Task: 0, Seq: 0, Object: 0},
		{At: 9, Kind: trace.Complete, Task: 0, Seq: 0, Object: -1},
	}
	s, err := series.FromEvents(events, 20, series.Config{Window: 5, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name, sim, mode string, bound int64) report.Run {
		return report.Run{
			Name: name, Sim: sim, Mode: mode, Seeds: []int64{1, 2},
			Jobs: 10, Completed: 9, Aborted: 1,
			Dists: []report.Dist{
				{Name: "retries", Title: "retries per job", Unit: "retries",
					Hist: mkHist(0, 0, 1, 1, 2, 3), Bound: bound, BoundLabel: "theorem 2 bound"},
				{Name: "sojourn_us", Title: "sojourn time", Unit: "µs",
					Hist: mkHist(5, 9, 12, 30), Bound: -1},
			},
			Series: s,
			Check: &check.Report{Tasks: []check.TaskReport{
				{Task: 0, Jobs: 10, Completed: 9, MaxRetries: 3, RetryBound: bound,
					MaxSojourn: 30, SojournBound: 120},
			}},
		}
	}
	return &report.Report{
		Title: "canonical run", Profile: "quick", Workload: "two-component",
		Runs: []report.Run{
			run("uni-lockfree", "uni", "lock-free", 4),
			run("uni-lockbased", "uni", "lock-based", -1),
		},
		Figs: []report.Table{
			{ID: "fig9", Title: "retries vs load", Note: "synthetic",
				Columns: []string{"load", "lock-free", "lock-based"},
				Rows: [][]string{
					{"0.2", "1.1 ± 0.2", "0.0 ± 0.0"},
					{"0.5", "2.4 ± 0.3", "0.0 ± 0.0"},
					{"0.8", "4.9 ± 0.8", "0.0 ± 0.0"},
				}},
			{ID: "costs", Title: "non-numeric table stays table-only",
				Columns: []string{"name", "value"},
				Rows:    [][]string{{"S", "5µs"}, {"R", "150µs"}}},
		},
	}
}

func TestWriteCSVDirDeterministic(t *testing.T) {
	r := fabricate(t)
	render := func(dir string) map[string]string {
		names, err := r.WriteCSVDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, n := range names {
			b, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				t.Fatal(err)
			}
			out[n] = string(b)
		}
		return out
	}
	a := render(t.TempDir())
	b := render(t.TempDir())
	if len(a) != len(b) {
		t.Fatalf("file sets differ: %d vs %d", len(a), len(b))
	}
	for n, body := range a {
		if b[n] != body {
			t.Fatalf("%s differs between renders", n)
		}
	}
	for _, want := range []string{
		"summary.csv",
		"uni-lockfree_hist_retries.csv", "uni-lockfree_hist_sojourn_us.csv",
		"uni-lockfree_series.csv", "uni-lockfree_tasks.csv",
		"uni-lockbased_tasks.csv", "fig9.csv", "costs.csv",
	} {
		if _, ok := a[want]; !ok {
			t.Fatalf("missing artifact %s; have %v", want, keys(a))
		}
	}
	// Histogram CSV: first bucket lo renders as -inf, cum_frac ends at 1.
	rows, err := csv.NewReader(strings.NewReader(a["uni-lockfree_hist_retries.csv"])).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[1][0] != "-inf" {
		t.Fatalf("first bucket lo = %q", rows[1][0])
	}
	if last := rows[len(rows)-1]; last[4] != "1.0000" {
		t.Fatalf("last cum_frac = %q", last[4])
	}
	// Summary carries the tail stats and the bound column.
	if !strings.Contains(a["summary.csv"], "retries_p99") || !strings.Contains(a["summary.csv"], "retries_bound") {
		t.Fatalf("summary header missing tail/bound columns:\n%s", a["summary.csv"])
	}
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestWriteText(t *testing.T) {
	r := fabricate(t)
	var a, b bytes.Buffer
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("text digest not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"run uni-lockfree sim=uni mode=lock-free",
		"bound=4", "bound=-", "fig fig9 rows=3",
		"sched_passes=0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("digest missing %q:\n%s", want, out)
		}
	}
}

func TestWriteHTML(t *testing.T) {
	r := fabricate(t)
	var a, b bytes.Buffer
	if err := r.WriteHTML(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteHTML(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("HTML not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"--series-1:   #2a78d6",          // light palette
		"--series-1:   #3987e5",          // dark palette is selected, not flipped
		"theorem 2 bound = 4",            // bound overlay label in the SVG
		"var(--status-critical)",         // bound line color role
		"bound held",                     // verdict chip
		"per-task observed extremes",     // task table
		"fig9 — retries vs load",         // figure section
		"<polyline",                      // line chart marks
		"queue depth and processor",      // series chart
		"events per window",              // second series chart
		"uni-lockbased",                  // second run section
		`class="chip c-series-1"`,        // legend chip
		`class="chip c-status-critical"`, // bound legend chip
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	if strings.Contains(out, "ZgotmplZ") {
		t.Fatal("template escaping rejected a CSS value")
	}
	// The non-numeric costs table stays table-only: its section heading
	// exists, but no legend precedes its table.
	costsAt := strings.Index(out, "costs — non-numeric table stays table-only")
	if costsAt < 0 {
		t.Fatal("costs figure section missing")
	}
	if sect := out[costsAt:]; strings.Contains(strings.SplitN(sect, "</table>", 2)[0], "<polyline") {
		t.Fatal("non-numeric table grew a chart")
	}
}

// TestFigChartCap: >4 numeric columns chart only the first four and
// note the rest.
func TestFigChartCap(t *testing.T) {
	r := &report.Report{
		Title: "cap", Profile: "quick", Workload: "w",
		Figs: []report.Table{{
			ID: "wide", Title: "wide table",
			Columns: []string{"x", "a", "b", "c", "d", "e"},
			Rows: [][]string{
				{"1", "1", "1", "1", "1", "1"},
				{"2", "2", "2", "2", "2", "2"},
			},
		}},
	}
	var buf bytes.Buffer
	if err := r.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "table-only columns (chart caps at 4 series): e") {
		t.Fatal("fifth series not noted as table-only")
	}
}
