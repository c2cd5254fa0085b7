package uam

import (
	"slices"
	"testing"

	"repro/internal/rtime"
)

// FuzzGenerateSatisfiesSpec drives the trace generators with fuzzed UAM
// parameters and checks every output against the exact sliding-window
// validator, and against the trace of the same generator on math/rand's
// own source (the lazily seeded stream must not move a single arrival).
// The horizon spans 15 + windowsRaw%500 windows; the last seed needs over
// 607 draws, so its stream runs through both lags of the source. Run the
// seeds with `go test`; explore with
// `go test -fuzz=FuzzGenerateSatisfiesSpec ./internal/uam`.
func FuzzGenerateSatisfiesSpec(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint16(100), uint8(0), uint16(0))
	f.Add(int64(7), uint8(3), uint8(2), uint16(500), uint8(1), uint16(0))
	f.Add(int64(-5), uint8(5), uint8(5), uint16(50), uint8(2), uint16(0))
	f.Add(int64(42), uint8(2), uint8(1), uint16(1000), uint8(0), uint16(0))
	f.Add(int64(1_000_003), uint8(5), uint8(5), uint16(200), uint8(0), uint16(185))
	f.Fuzz(func(t *testing.T, seed int64, aRaw, lRaw uint8, wRaw uint16, kindRaw uint8, windowsRaw uint16) {
		a := int(aRaw%6) + 1
		l := int(lRaw) % (a + 1)
		w := rtime.Duration(wRaw%2000) + 10
		spec := Spec{L: l, A: a, W: w}
		g, err := NewGenerator(spec, seed)
		if err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
		kind := Kind(kindRaw % 3)
		horizon := rtime.Time((15 + rtime.Duration(windowsRaw%500)) * w)
		tr := g.Generate(kind, horizon)
		if err := CheckTrace(spec, tr, horizon); err != nil {
			t.Fatalf("spec %v kind %d: %v", spec, kind, err)
		}
		if want := oracleGenerator(spec, seed).Generate(kind, horizon); !slices.Equal(tr, want) {
			t.Fatalf("spec %v kind %d seed %d: trace differs from the math/rand-backed generator", spec, kind, seed)
		}
		if got := int64(len(tr)); got > spec.MaxArrivalsIn(rtime.Duration(horizon)) {
			t.Fatalf("trace length %d exceeds analytic max %d", got, spec.MaxArrivalsIn(rtime.Duration(horizon)))
		}
	})
}

// FuzzCheckTraceNoPanic feeds arbitrary (possibly invalid) traces to the
// validator: it must reject or accept, never panic.
func FuzzCheckTraceNoPanic(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(2), uint16(100))
	f.Add([]byte{255, 0, 9}, uint8(1), uint16(10))
	f.Fuzz(func(t *testing.T, raw []byte, aRaw uint8, wRaw uint16) {
		spec := Spec{L: 0, A: int(aRaw%5) + 1, W: rtime.Duration(wRaw%1000) + 1}
		tr := make(Trace, len(raw))
		for i, b := range raw {
			tr[i] = rtime.Time(int64(b) * 13)
		}
		_ = CheckTrace(spec, tr, 4000) // error or nil, both fine
	})
}
