package experiment

import (
	"strings"
	"testing"
)

// TestParallelDeterminism is the tentpole guarantee of the parallel
// experiment engine: for every registered experiment the rendered tables
// are byte-identical whether the sweep runs on one worker or many. Runs
// are pure functions of their sim.Config and results merge by index, so
// worker count and goroutine interleaving must be unobservable.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			p := Quick
			p.Jobs = 1
			seq, seqErr := renderFig(p, id)
			p.Jobs = 8
			par, parErr := renderFig(p, id)
			if seqErr != parErr {
				t.Fatalf("error mismatch: jobs=1 %q, jobs=8 %q", seqErr, parErr)
			}
			if seq != par {
				t.Fatalf("rendered tables differ between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, par)
			}
		})
	}
}

// renderFig runs one registered experiment under p and returns its
// rendered tables and error text.
func renderFig(p Profile, id string) (string, string) {
	tables, err := Registry[id](p)
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.Render())
		sb.WriteByte('\n')
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	return sb.String(), errText
}
