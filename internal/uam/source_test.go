package uam

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rtime"
)

// oracleGenerator is a Generator on math/rand's own source: the
// reference lazySource must reproduce byte for byte.
func oracleGenerator(s Spec, seed int64) *Generator {
	return &Generator{Spec: s, rng: rand.New(rand.NewSource(seed))}
}

// TestLazySourceMatchesMathRand holds lazySource to math/rand.NewSource
// draw for draw. 2,000 draws cross both lags (273 and 607) and the
// promotion from the inline head to the ring; the seeds cover every
// branch of the seed normalization.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311,
		int32max, -int32max, 2 * int32max,
		math.MinInt64, math.MaxInt64, 1_000_003,
	}
	const draws = 2000
	for _, seed := range seeds {
		want := rand.NewSource(seed)
		got := newLazySource(seed)
		for k := 1; k <= draws; k++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, k, g, w)
			}
		}
		want64 := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed) // re-seeding restarts the stream, ring and all
		for k := 1; k <= draws; k++ {
			if w, g := want64.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d after Seed = %d, want %d", seed, k, g, w)
			}
		}
	}
}

var allocSink Trace

// TestScaleTaskSetupAllocs bounds the bytes one scale-workload task
// spends on arrival setup: a ⟨1,1,W⟩ generator drawing over three
// windows. Seeding math/rand's 607-word source alone costs ≈ 5 KB.
func TestScaleTaskSetupAllocs(t *testing.T) {
	const w = 250 * rtime.Millisecond
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := mustGenerator(Spec{L: 1, A: 1, W: w, Phase: w / 3}, int64(i))
			allocSink = g.Generate(KindJittered, rtime.Time(3*w))
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("scale task setup: %d B/op", got)
	if got > 512 {
		t.Fatalf("scale task setup allocates %d B/op, want ≤ 512", got)
	}
}

// TestLongStreamAllocs checks that a stream long enough to live in the
// ring (≥ 10⁴ draws) allocates no more than the math/rand-backed
// generator it reproduces.
func TestLongStreamAllocs(t *testing.T) {
	spec := Spec{L: 4, A: 4, W: 100}
	const horizon = rtime.Time(3000 * 100) // ≈ 12,000 arrivals, one draw each
	if n := len(mustGenerator(spec, 5).Generate(KindJittered, horizon)); n < 10_000 {
		t.Fatalf("stream drew only %d arrivals, want ≥ 10⁴", n)
	}
	bytesPerOp := func(mk func(int64) *Generator) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				allocSink = mk(int64(i)).Generate(KindJittered, horizon)
			}
		}).AllocedBytesPerOp()
	}
	lazy := bytesPerOp(func(seed int64) *Generator { return mustGenerator(spec, seed) })
	oracle := bytesPerOp(func(seed int64) *Generator { return oracleGenerator(spec, seed) })
	t.Logf("long stream: %d B/op, math/rand-backed %d B/op", lazy, oracle)
	if lazy > oracle {
		t.Fatalf("long stream allocates %d B/op, math/rand-backed generator %d B/op", lazy, oracle)
	}
}

// mustGenerator is NewGenerator for specs known to be valid; it panics
// rather than calling t.Fatal, which testing.Benchmark's goroutine may
// not do.
func mustGenerator(s Spec, seed int64) *Generator {
	g, err := NewGenerator(s, seed)
	if err != nil {
		panic(err)
	}
	return g
}
