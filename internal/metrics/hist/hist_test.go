package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := New([]int64{3, 3}); err == nil {
		t.Fatal("non-ascending bounds accepted")
	}
	if _, err := New([]int64{5, 2}); err == nil {
		t.Fatal("descending bounds accepted")
	}
	if _, err := Linear(10, 10, 4); err == nil {
		t.Fatal("zero-width Linear accepted")
	}
}

func TestBucketing(t *testing.T) {
	h := MustNew([]int64{0, 10, 100})
	for _, v := range []int64{-5, 0, 1, 10, 11, 100, 101, 5000} {
		h.Add(v)
	}
	// counts: (-inf,0]=2  (0,10]=2  (10,100]=2  overflow=2
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("counts = %v, want %v", h.counts, want)
		}
	}
	if h.N() != 8 || h.Min() != -5 || h.Max() != 5000 {
		t.Fatalf("n=%d min=%d max=%d", h.N(), h.Min(), h.Max())
	}
	bs := h.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %+v", bs)
	}
	if bs[0].Lo != math.MinInt64 || bs[0].Hi != 0 {
		t.Fatalf("first bucket = %+v", bs[0])
	}
	if last := bs[len(bs)-1]; last.Lo != 100 || last.Hi != 5000 {
		t.Fatalf("overflow bucket = %+v", last)
	}
}

func TestEmpty(t *testing.T) {
	h := Exp2(64)
	if h.N() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty digest: %+v", h.Summarize())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	if bs := h.Buckets(); len(bs) != 0 {
		t.Fatalf("empty buckets = %+v", bs)
	}
	if !h.Exact() {
		t.Fatal("empty histogram should report exact")
	}
}

func TestSingleValue(t *testing.T) {
	h := Exp2(1024)
	h.Add(7)
	s := h.Summarize()
	if s.N != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 {
		t.Fatalf("digest = %+v", s)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) = %d, want 7", q, got)
		}
	}
}

// exactQuantile is the reference: nearest-rank over a sorted copy.
func exactQuantile(xs []int64, q float64) int64 {
	s := make([]int64, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// TestQuantilesMatchExactRandomized is the acceptance cross-check:
// histogram quantiles must equal exact sorted-slice quantiles on
// randomized workloads while the sample cap holds.
func TestQuantilesMatchExactRandomized(t *testing.T) {
	qs := []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		xs := make([]int64, n)
		h := Exp2(1 << 20)
		for i := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[i] = int64(rng.Intn(10)) // heavy head
			case 1:
				xs[i] = int64(rng.Intn(1000))
			default:
				xs[i] = int64(rng.Intn(1 << 21)) // beyond the last bound
			}
			h.Add(xs[i])
		}
		if !h.Exact() {
			t.Fatalf("seed %d: degraded below cap (n=%d)", seed, n)
		}
		for _, q := range qs {
			want := exactQuantile(xs, q)
			if got := h.Quantile(q); got != want {
				t.Fatalf("seed %d n=%d: Quantile(%v) = %d, want %d", seed, n, q, got, want)
			}
		}
	}
}

// TestQuantileDegraded checks the over-cap path: bucket-resolution
// quantiles never under-report the exact value.
func TestQuantileDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := Exp2(1 << 16)
	h.SetExactCap(100)
	var xs []int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 17))
		xs = append(xs, v)
		h.Add(v)
	}
	if h.Exact() {
		t.Fatal("histogram should have degraded past the cap")
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := exactQuantile(xs, q)
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("degraded Quantile(%v) = %d under-reports exact %d", q, got, exact)
		}
		if got > h.Max() {
			t.Fatalf("degraded Quantile(%v) = %d exceeds max %d", q, got, h.Max())
		}
	}
	if h.Quantile(1) != h.Max() || h.Quantile(0) != h.Min() {
		t.Fatal("extreme quantiles must be exact even degraded")
	}
}

// TestMergeEquivalence: merging shards must equal adding every value
// to one histogram — the property the parallel sweep merge relies on.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() *Hist { return Exp2(4096) }
	whole := mk()
	shards := []*Hist{mk(), mk(), mk()}
	for i := 0; i < 900; i++ {
		v := int64(rng.Intn(10000))
		whole.Add(v)
		shards[i%3].Add(v)
	}
	merged := mk()
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N() != whole.N() || merged.Sum() != whole.Sum() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged digest %+v != whole %+v", merged.Summarize(), whole.Summarize())
	}
	for _, q := range []float64{0.25, 0.5, 0.95, 0.99} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, whole = %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	bad := MustNew([]int64{1, 2})
	if err := merged.Merge(bad); err == nil {
		t.Fatal("merge across different bounds accepted")
	}
}

func TestLinearBounds(t *testing.T) {
	h, err := Linear(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.bounds); got != 10 {
		t.Fatalf("bounds = %v", h.bounds)
	}
	if h.bounds[9] != 100 || h.bounds[0] != 10 {
		t.Fatalf("bounds = %v", h.bounds)
	}
	// n > span collapses duplicate bounds rather than erroring.
	h2, err := Linear(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.bounds) != 4 { // 0, 1, 2, 3
		t.Fatalf("collapsed bounds = %v", h2.bounds)
	}
}

func TestSetExactCapGuards(t *testing.T) {
	h := Exp2(8)
	h.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetExactCap after Add did not panic")
		}
	}()
	h.SetExactCap(10)
}

// TestExp2Bounds: Exp2 reads its bounds off the shared table, which
// must give the bounds the doubling loop it replaced builds: 0, then
// powers of two up to the first at or above hi, capped at 2^62.
func TestExp2Bounds(t *testing.T) {
	for _, hi := range []int64{math.MinInt64, -1, 0, 1, 2, 3, 4, 5, 1000, 1 << 12, 1<<12 + 1, 1 << 26, 1 << 61, 1<<61 + 1, 1 << 62, math.MaxInt64} {
		want := []int64{0}
		for b := int64(1); ; b *= 2 {
			want = append(want, b)
			if b >= hi || b > math.MaxInt64/2 {
				break
			}
		}
		h := Exp2(hi)
		if len(h.bounds) != len(want) || cap(h.bounds) != len(want) {
			t.Fatalf("Exp2(%d): %d bounds (cap %d), want %d", hi, len(h.bounds), cap(h.bounds), len(want))
		}
		for i := range want {
			if h.bounds[i] != want[i] {
				t.Fatalf("Exp2(%d): bound %d = %d, want %d", hi, i, h.bounds[i], want[i])
			}
		}
	}
}
