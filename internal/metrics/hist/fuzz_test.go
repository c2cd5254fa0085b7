package hist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refQuantile is the reference Quantile over all values xs: the
// nearest-rank value of the sorted slice while the histogram is exact,
// and otherwise the upper bound of the bucket holding that rank, capped
// at the maximum (the overflow bucket reports the maximum).
func refQuantile(bounds, xs []int64, exact bool, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if exact || q <= 0 || q >= 1 {
		return exactQuantile(xs, q)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := min(max(int(math.Ceil(q*float64(len(s)))), 1), len(s))
	v, hi := s[rank-1], s[len(s)-1]
	for _, b := range bounds {
		if v <= b {
			return min(b, hi)
		}
	}
	return hi
}

// refBuckets counts xs into the non-empty cells Buckets renders.
func refBuckets(bounds, xs []int64) []Bucket {
	counts := make([]int64, len(bounds)+1)
	hi := int64(math.MinInt64)
	for _, v := range xs {
		i, _ := slices.BinarySearch(bounds, v)
		counts[i]++
		hi = max(hi, v)
	}
	var out []Bucket
	for i, c := range counts {
		if c == 0 {
			continue
		}
		b := Bucket{Lo: math.MinInt64, Hi: hi, Count: c}
		if i > 0 {
			b.Lo = bounds[i-1]
		}
		if i < len(bounds) {
			b.Hi = bounds[i]
		}
		out = append(out, b)
	}
	return out
}

// FuzzHistMatchesSorted is the differential check of the counted
// representation: values below zero, inside [0, smallRange) and above
// it, split over random shards that merge in a random order, against
// the sorted-slice reference, at exact caps just below, at and just
// above the value count, and at zero.
func FuzzHistMatchesSorted(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 1, 2, 200, 9}, uint8(0), uint8(1), int64(1))
	f.Add([]byte{0, 255, 7, 1, 3, 1, 2, 90, 2, 1, 1, 1, 0, 0, 4}, uint8(1), uint8(3), int64(2))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 0, 9, 9, 1, 63, 0}, uint8(2), uint8(4), int64(3))
	f.Add([]byte{}, uint8(3), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, capSel, nShards uint8, seed int64) {
		var xs []int64
		for i := 0; i+1 < len(data); i += 2 {
			v := int64(data[i+1])
			switch data[i] % 4 {
			case 0: // negative
				v = -1 - v*int64(data[i]/4+1)
			case 1, 2: // the counted range, as in retry counts
				v %= smallRange
			default: // above it, up to past the last bound
				v = smallRange + v*v*int64(data[i]/4+1)
			}
			xs = append(xs, v)
		}
		n := len(xs)
		exactCap := [4]int{0, max(n-1, 0), n, n + 1}[capSel%4]
		exact := n <= exactCap

		rng := rand.New(rand.NewSource(seed))
		mk := func() *Hist {
			h := Exp2(1 << 10)
			h.SetExactCap(exactCap)
			return h
		}
		whole := mk()
		shards := make([]*Hist, 1+int(nShards%4))
		for i := range shards {
			shards[i] = mk()
		}
		for _, v := range xs {
			whole.Add(v)
			shards[rng.Intn(len(shards))].Add(v)
		}
		order := rng.Perm(len(shards))
		merged := shards[order[0]]
		for _, i := range order[1:] {
			if err := merged.Merge(shards[i]); err != nil {
				t.Fatal(err)
			}
		}

		var sum int64
		lo, hi := int64(0), int64(0)
		if n > 0 {
			lo, hi = slices.Min(xs), slices.Max(xs)
		}
		for _, v := range xs {
			sum += v
		}
		bounds := whole.bounds
		qs := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
		for _, c := range []struct {
			name string
			h    *Hist
		}{{"whole", whole}, {"merged", merged}} {
			name, h := c.name, c.h
			if h.N() != int64(n) || h.Sum() != sum || h.Min() != lo || h.Max() != hi {
				t.Fatalf("%s: n=%d sum=%d min=%d max=%d, want %d %d %d %d",
					name, h.N(), h.Sum(), h.Min(), h.Max(), n, sum, lo, hi)
			}
			if h.Exact() != (n == 0 || exact) {
				t.Fatalf("%s: Exact() = %v with n=%d cap=%d", name, h.Exact(), n, exactCap)
			}
			for _, q := range qs {
				if got, want := h.Quantile(q), refQuantile(bounds, xs, exact, q); got != want {
					t.Fatalf("%s n=%d cap=%d: Quantile(%v) = %d, want %d", name, n, exactCap, q, got, want)
				}
			}
			want := Summary{N: int64(n), Min: lo, Max: hi, Sum: sum,
				P50: refQuantile(bounds, xs, exact, 0.50), P90: refQuantile(bounds, xs, exact, 0.90),
				P95: refQuantile(bounds, xs, exact, 0.95), P99: refQuantile(bounds, xs, exact, 0.99),
				P999: refQuantile(bounds, xs, exact, 0.999)}
			if n > 0 {
				want.Mean = float64(sum) / float64(n)
			}
			if got := h.Summarize(); got != want {
				t.Fatalf("%s: Summarize() = %+v, want %+v", name, got, want)
			}
			if got, want := h.Buckets(), refBuckets(bounds, xs); !slices.Equal(got, want) {
				t.Fatalf("%s: Buckets() = %+v, want %+v", name, got, want)
			}
		}
	})
}
