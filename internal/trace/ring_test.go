package trace

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
	"unsafe"
)

// TestRecorderLimitKeepsSuffix: a bounded recorder keeps exactly the
// last limit events, oldest first, and counts every drop, including
// when Events is read (which rotates the ring in place) in the middle
// of recording.
func TestRecorderLimitKeepsSuffix(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		limit := r.Intn(40)
		rec := NewRecorder(limit)
		var all []Event
		for n := r.Intn(200); n > 0; n-- {
			e := Event{At: 0, Kind: Commit, Task: len(all), Seq: trial}
			rec.Record(e)
			all = append(all, e)
			if r.Intn(8) == 0 || n == 1 {
				want := all
				if limit > 0 && len(all) > limit {
					want = all[len(all)-limit:]
				}
				if got := rec.Events(); !slices.Equal(got, want) {
					t.Fatalf("limit %d after %d events: got %d events, want the last %d", limit, len(all), len(got), len(want))
				}
				if rec.Len() != len(want) || rec.Dropped() != int64(len(all)-len(want)) {
					t.Fatalf("limit %d after %d events: Len %d Dropped %d", limit, len(all), rec.Len(), rec.Dropped())
				}
			}
		}
	}
}

func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRecorderLimitAllocFlat: a bounded recorder's memory stops at its
// limit — recording ten times more events allocates no more bytes. The
// resliced slice it replaced allocated about 177 B per event at limit
// 1000.
func TestRecorderLimitAllocFlat(t *testing.T) {
	const limit = 1000
	alloc := func(n int) uint64 {
		heapAllocBytes()
		before := heapAllocBytes()
		rec := NewRecorder(limit)
		for i := 0; i < n; i++ {
			rec.Record(Event{At: 0, Kind: Commit, Task: i})
		}
		got := heapAllocBytes() - before
		if rec.Len() != limit || rec.Dropped() != int64(n-limit) {
			t.Fatalf("%d events: Len %d Dropped %d", n, rec.Len(), rec.Dropped())
		}
		return got
	}
	small, large := alloc(10_000), alloc(100_000)
	t.Logf("limit %d: 10^4 events allocated %d bytes, 10^5 allocated %d", limit, small, large)
	if large > small+small/10 {
		t.Fatalf("10× the events allocated %d bytes against %d: memory grows with events, not the limit", large, small)
	}
	if bound := uint64(4*limit) * uint64(unsafe.Sizeof(Event{})); large > bound {
		t.Fatalf("limit %d allocated %d bytes, want ≤ %d", limit, large, bound)
	}
}

// TestRingGrowsPastPrealloc: a limit above ringPrealloc starts at
// ringPrealloc events and doubles up to the limit, keeping order and
// the drop count.
func TestRingGrowsPastPrealloc(t *testing.T) {
	limit := ringPrealloc + ringPrealloc/2
	r := NewRing(limit)
	if cap(r.buf) != ringPrealloc {
		t.Fatalf("ring of limit %d preallocated %d events, want %d", limit, cap(r.buf), ringPrealloc)
	}
	n := 2*limit + 5
	for i := 0; i < n; i++ {
		r.Push(Event{Task: i})
	}
	if cap(r.buf) != limit || r.Len() != limit || r.Dropped() != int64(n-limit) {
		t.Fatalf("cap %d Len %d Dropped %d, want %d, %d, %d", cap(r.buf), r.Len(), r.Dropped(), limit, limit, n-limit)
	}
	for i, e := range r.Events() {
		if e.Task != n-limit+i {
			t.Fatalf("event %d is task %d, want %d", i, e.Task, n-limit+i)
		}
	}
}
