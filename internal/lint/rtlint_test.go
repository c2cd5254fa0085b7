package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// Each analyzer gets a positive fixture (violations carrying // want
// expectations) and a negative one (same shapes outside the analyzer's
// scope, or compliant idioms) loaded GOPATH-style from testdata/src.

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Maporder,
		"maporder/internal/sim", "maporder/internal/trace", "maporder/notscoped",
		"maporder/internal/report", "maporder/internal/metrics/hist",
		"maporder/internal/rtime/wheel", "maporder/internal/fault",
		"maporder/internal/stoch",
		"maporder/internal/obs", "maporder/internal/serve")
}

func TestSimclock(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Simclock,
		"simclock/app", "simclock/internal/uam", "simclock/internal/rtime/wheel",
		"simclock/internal/fault", "simclock/internal/stoch")
}

func TestAtomicmix(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Atomicmix,
		"atomicmix/internal/lockfree", "atomicmix/notscoped")
}

func TestSharedtask(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Sharedtask,
		"sharedtask/app", "sharedtask/internal/experiment")
}

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Floatcmp,
		"floatcmp/internal/metrics", "floatcmp/internal/report",
		"floatcmp/internal/rua", "floatcmp/internal/fault",
		"floatcmp/internal/stoch",
		"floatcmp/internal/obs", "floatcmp/internal/serve")
}

// TestIgnoreDirective proves the suppression contract: a justified
// directive on the flagged line or the line above silences exactly that
// finding; naming an unknown analyzer or omitting the reason turns the
// directive itself into a finding and suppresses nothing.
func TestIgnoreDirective(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Maporder,
		"ignoredir/internal/sim")
}

// TestNoalloc drives the whole fact pipeline: alloclib is listed first
// so its exported facts exist, then hot's annotated roots turn a
// dependency's allocation fact, in-package transitive sites, boxing,
// and unproven stdlib calls into diagnostics — while panic arguments
// and justified ignores stay silent.
func TestNoalloc(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Noalloc,
		"noalloc/internal/alloclib", "noalloc/internal/hot")
}

func TestCasloop(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Casloop,
		"casloop/internal/lockfree", "casloop/notscoped")
}

func TestAtomicalign(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.Atomicalign,
		"atomicalign/internal/stats", "atomicalign/notscoped")
}
