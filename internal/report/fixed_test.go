package report

import (
	"math"
	"strconv"
	"testing"
)

// FuzzFixedMatchesStrconv: formatFixed, and appendFixed after a
// prefix, are byte-identical to strconv.FormatFloat(v, 'f', p, 64) at
// the report's two precisions.
func FuzzFixedMatchesStrconv(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		0.005, 0.015, 0.125, 0.375, 0.00005, 0.00015, 1e-5, -0.001,
		9.995, 99.995, 9.99999, -9.995, 0.99995, 999.99995, 1.005, 2.675,
		1, 10, 123.456, 1e9, 1e12 + 0.5, 4503599627370495.5, 1 << 52, 1 << 53,
		1e15, 1e17, 1e20, 1e300, math.MaxFloat64, -math.MaxFloat64,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for _, p := range []int{2, 4} {
			if got, want := formatFixed(v, p), strconv.FormatFloat(v, 'f', p, 64); got != want {
				t.Fatalf("formatFixed(%v, %d) = %q, strconv says %q", v, p, got, want)
			}
			if got, want := string(appendFixed([]byte("x,"), v, p)), "x,"+strconv.FormatFloat(v, 'f', p, 64); got != want {
				t.Fatalf("appendFixed(\"x,\", %v, %d) = %q, want %q", v, p, got, want)
			}
		}
	})
}
