// Package hist provides deterministic fixed-boundary histograms over
// the simulator's integer tick domain (retry counts, µs durations,
// queue depths). The paper's headline analytical results — Theorem 2's
// retry bound, Theorem 3's sojourn tradeoff — are statements about
// worst-case tails, which the mean ± CI statistics of
// internal/metrics hide; a histogram keeps the whole distribution so
// reports can put p50/p95/p99/max next to every mean and draw the
// analytic bound over the observed tail.
//
// Determinism rules (rtlint-clean by construction):
//   - bucket boundaries are fixed at construction; no maps anywhere,
//     so no iteration-order hazards;
//   - counters and sums are int64 — no float accumulation, so Merge is
//     exactly associative and the fold order of a parallel sweep can
//     never change a rendered digit;
//   - quantiles are exact (nearest-rank over every recorded value) up
//     to a configurable cap, and degrade to conservative bucket upper
//     bounds beyond it — they never under-report a tail.
//
// "Exact" keeps every value, but not every value as a sample: a value
// in [0, 64) — retry and attempt counts, almost always 1–3 — only
// increments a per-value count, and only values outside that range are
// kept as raw samples. Memory for exact quantiles is thus O(64 + values
// outside it), not O(values).
package hist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrBounds reports invalid bucket boundaries.
var ErrBounds = errors.New("hist: invalid bucket bounds")

// ErrMerge reports a merge between histograms with different shapes.
var ErrMerge = errors.New("hist: incompatible histograms")

// DefaultExactCap is how many values a histogram records with exact
// quantiles before degrading to bucket-resolution quantiles.
// Trace-suite runs observe at most a few thousand jobs, so the exact
// path is the norm; the cap only guards pathological volumes.
const DefaultExactCap = 1 << 16

// smallRange bounds the values an exact histogram counts per value
// instead of keeping as samples: v in [0, smallRange).
const smallRange = 64

// Hist is a fixed-boundary histogram over int64 values. The zero value
// is not usable; construct with New, Linear, or Exp2.
type Hist struct {
	bounds []int64 // ascending inclusive upper bounds
	counts []int64 // len(bounds)+1; the last cell is the overflow bucket

	n   int64
	sum int64
	min int64
	max int64

	// While exact, every recorded value is either counted in small
	// (v in [0, smallRange), allocated at the first such value) or kept
	// in samples; both are dropped once degraded.
	small    []int64
	samples  []int64
	sorted   bool
	degraded bool
	exactCap int
}

// New builds a histogram with the given ascending, strictly increasing
// inclusive upper bounds. Bucket i counts values v with
// bounds[i-1] < v ≤ bounds[i]; values above the last bound land in the
// overflow bucket.
func New(bounds []int64) (*Hist, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%w: need at least one bound", ErrBounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("%w: bounds must be strictly ascending (bounds[%d]=%d, bounds[%d]=%d)",
				ErrBounds, i-1, bounds[i-1], i, bounds[i])
		}
	}
	return newHist(append([]int64(nil), bounds...)), nil
}

// newHist returns an empty histogram over bounds, which it keeps: no
// method writes to them, so histograms may share one table.
func newHist(bounds []int64) *Hist {
	return &Hist{
		bounds:   bounds,
		counts:   make([]int64, len(bounds)+1),
		min:      math.MaxInt64,
		max:      math.MinInt64,
		exactCap: DefaultExactCap,
	}
}

// MustNew is New, panicking on invalid bounds; for fixed literal
// boundary sets.
func MustNew(bounds []int64) *Hist {
	h, err := New(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Linear builds n equal-width buckets spanning [lo, hi] (plus the
// implicit underflow into bucket 0 and the overflow bucket).
func Linear(lo, hi int64, n int) (*Hist, error) {
	if n <= 0 || hi <= lo {
		return nil, fmt.Errorf("%w: Linear(%d, %d, %d)", ErrBounds, lo, hi, n)
	}
	bounds := make([]int64, n)
	span := hi - lo
	for i := range bounds {
		bounds[i] = lo + span*int64(i+1)/int64(n)
	}
	// Integer rounding can collapse adjacent bounds when n > span.
	out := bounds[:0]
	for _, b := range bounds {
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	return New(out)
}

// Exp2 builds power-of-two buckets 0, 1, 2, 4, … up to at least hi —
// the natural shape for long-tailed counts like per-job retries. Its
// bounds are a prefix of one shared table, so it allocates only the
// counts.
func Exp2(hi int64) *Hist {
	n := 2 // 0 and 1
	for b := int64(1); b < hi && b <= math.MaxInt64/2; b *= 2 {
		n++
	}
	return newHist(exp2Bounds[:n:n])
}

// exp2Bounds is 0 followed by every power of two up to 2^62, the
// largest Exp2 reaches.
var exp2Bounds = func() (t [64]int64) {
	for i := 1; i < len(t); i++ {
		t[i] = 1 << (i - 1)
	}
	return t
}()

// SetExactCap overrides the exact-quantile sample cap. Must be called
// before the first Add; a cap of 0 disables sample retention entirely.
func (h *Hist) SetExactCap(n int) {
	if h.n != 0 {
		panic("hist: SetExactCap after Add")
	}
	h.exactCap = n
}

// Add records one value.
func (h *Hist) Add(v int64) {
	h.counts[h.bucketOf(v)]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	switch {
	case h.degraded: // buckets only
	case h.n > int64(h.exactCap):
		h.degrade() // quantiles now come from buckets
	case v >= 0 && v < smallRange:
		if h.small == nil {
			h.small = make([]int64, smallRange)
		}
		h.small[v]++
	default:
		h.samples = append(h.samples, v)
		h.sorted = false
	}
}

// degrade drops the exact-quantile state for good.
func (h *Hist) degrade() {
	h.degraded = true
	h.small, h.samples = nil, nil
}

// bucketOf returns the index of the bucket receiving v (binary search
// over the fixed bounds; the last index is the overflow bucket).
func (h *Hist) bucketOf(v int64) int {
	return sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
}

// N returns the number of recorded values.
func (h *Hist) N() int64 { return h.n }

// Min returns the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Sum returns the exact integer sum of recorded values.
func (h *Hist) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty). The only floating
// point in the package happens here and in Quantile's rank — at read
// time, never during accumulation.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Exact reports whether quantiles are exact (every value retained,
// counted or kept) rather than bucket-resolution.
func (h *Hist) Exact() bool { return !h.degraded }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank
// method: the smallest recorded value with at least ⌈q·n⌉ values ≤ it.
// While the sample cap holds this is exact; past it, the bucket upper
// bound containing the rank is returned, which can only over-report.
// Empty histograms return 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	if !h.degraded {
		return h.exactRank(rank)
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				b := h.bounds[i]
				if b > h.max {
					return h.max
				}
				return b
			}
			return h.max // overflow bucket
		}
	}
	return h.max
}

// exactRank returns the rank-th smallest recorded value (1-based) of an
// exact histogram: in ascending order, the negative samples, then the
// counted values, then the samples of smallRange and above.
func (h *Hist) exactRank(rank int64) int64 {
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	neg, _ := slices.BinarySearch(h.samples, 0)
	if rank <= int64(neg) {
		return h.samples[rank-1]
	}
	rank -= int64(neg)
	for v, c := range h.small {
		if rank <= c {
			return int64(v)
		}
		rank -= c
	}
	return h.samples[int64(neg)+rank-1]
}

// Merge folds o into h. Both histograms must share identical bounds.
// Merging is exact for counts, sums, and extremes; exact quantiles
// survive while the combined sample count fits the cap.
func (h *Hist) Merge(o *Hist) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("%w: %d vs %d buckets", ErrMerge, len(h.bounds)+1, len(o.bounds)+1)
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("%w: bound %d differs (%d vs %d)", ErrMerge, i, h.bounds[i], o.bounds[i])
		}
	}
	exactBefore := h.Exact()
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if o.n > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.n += o.n
	h.sum += o.sum
	switch {
	case exactBefore && o.Exact() && h.n <= int64(h.exactCap):
		if o.small != nil {
			if h.small == nil {
				h.small = make([]int64, smallRange)
			}
			for v, c := range o.small {
				h.small[v] += c
			}
		}
		if len(o.samples) > 0 {
			h.samples = append(h.samples, o.samples...)
			h.sorted = false
		}
	case h.n > 0:
		h.degrade()
	}
	return nil
}

// Bucket is one rendered histogram cell. Lo is exclusive except for
// the first bucket (math.MinInt64 means "everything up to Hi"); Hi is
// inclusive. The overflow bucket reports Hi = the observed maximum.
type Bucket struct {
	Lo, Hi int64
	Count  int64
}

// Buckets returns the non-empty cells in ascending value order,
// suitable for deterministic rendering.
func (h *Hist) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		b := Bucket{Count: c}
		if i == 0 {
			b.Lo = math.MinInt64
			b.Hi = h.bounds[0]
		} else if i < len(h.bounds) {
			b.Lo = h.bounds[i-1]
			b.Hi = h.bounds[i]
		} else {
			b.Lo = h.bounds[len(h.bounds)-1]
			b.Hi = h.max
		}
		out = append(out, b)
	}
	return out
}

// Summary is the distribution digest reports place next to each mean.
type Summary struct {
	N                        int64
	Min, Max, Sum            int64
	Mean                     float64
	P50, P90, P95, P99, P999 int64
}

// Summarize computes the digest.
// P999 extends the tail view for retry-attempt distributions, where the
// paper's interesting behaviour (and Theorem 2's bound) lives in the
// extreme quantiles rather than the mean.
func (h *Hist) Summarize() Summary {
	return Summary{
		N: h.n, Min: h.Min(), Max: h.Max(), Sum: h.sum, Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90),
		P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}
