package experiment

import (
	"bytes"
	"testing"
)

// testReportProfile is Quick with two seeds so cross-seed merging is
// actually exercised.
func testReportProfile(jobs int) Profile {
	p := Quick
	p.Seeds = []int64{1, 2}
	p.Jobs = jobs
	return p
}

// TestBuildReport is the acceptance check: the observed retry histogram
// of every lock-free uni/multi run stays under its Theorem 2 bound, the
// bound is attached to the retry distribution, and sections for every
// simulator × mode exist.
func TestBuildReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full trace grid")
	}
	rep, err := BuildReport(testReportProfile(0), []string{"costs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(reportCombos) {
		t.Fatalf("runs = %d, want %d", len(rep.Runs), len(reportCombos))
	}
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if run.Jobs == 0 || run.Completed == 0 {
			t.Fatalf("%s: no jobs traced (jobs=%d completed=%d)", run.Name, run.Jobs, run.Completed)
		}
		if len(run.Seeds) != 2 {
			t.Fatalf("%s: seeds = %v", run.Name, run.Seeds)
		}
		if run.Series == nil || len(run.Series.Points) == 0 {
			t.Fatalf("%s: no series", run.Name)
		}
		retries := run.Dists[0]
		if retries.Name != "retries" {
			t.Fatalf("%s: first dist = %q", run.Name, retries.Name)
		}
		switch {
		case run.Sim == TraceSimGlobal:
			if run.Check != nil || retries.Bound != -1 {
				t.Fatalf("%s: global runs must carry no Theorem 2 bound", run.Name)
			}
		case run.Mode == "lock-based":
			if retries.Bound != -1 {
				t.Fatalf("%s: lock-based retry bound = %d, want none", run.Name, retries.Bound)
			}
			if run.Check == nil {
				t.Fatalf("%s: missing bound check", run.Name)
			}
		default: // uni/multi lock-free: the paper's Theorem 2 claim
			if retries.Bound < 0 {
				t.Fatalf("%s: missing Theorem 2 bound", run.Name)
			}
			if max := retries.Hist.Max(); max > retries.Bound {
				t.Fatalf("%s: observed max retries %d exceeds Theorem 2 bound %d", run.Name, max, retries.Bound)
			}
			if len(run.Violations()) != 0 {
				t.Fatalf("%s: violations %v", run.Name, run.Violations())
			}
		}
	}
	if len(rep.Figs) != 1 || rep.Figs[0].ID != "costs" {
		t.Fatalf("figs = %+v", rep.Figs)
	}
}

// TestBuildReportJobsInvariant: the rendered artifacts are byte-equal
// for serial and parallel execution, plain and under fault injection
// and stochastic scheduling.
func TestBuildReportJobsInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trace grid twice per profile")
	}
	for _, name := range []string{"plain", "fault", "stoch"} {
		t.Run(name, func(t *testing.T) {
			render := func(jobs int) (string, string) {
				p := traceProfiles(t)[name]
				p.Jobs = jobs
				rep, err := BuildReport(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				var txt, html bytes.Buffer
				if err := rep.WriteText(&txt); err != nil {
					t.Fatal(err)
				}
				if err := rep.WriteHTML(&html); err != nil {
					t.Fatal(err)
				}
				return txt.String(), html.String()
			}
			txt1, html1 := render(1)
			txt4, html4 := render(4)
			if txt1 != txt4 {
				t.Fatalf("-metrics digest differs between -jobs 1 and 4:\n%s\n---\n%s", txt1, txt4)
			}
			if html1 != html4 {
				t.Fatal("HTML report differs between -jobs 1 and 4")
			}
		})
	}
}
