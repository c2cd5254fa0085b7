package lockfree

import (
	"runtime"
	"sync"
	"testing"
)

// Stress tests: both structures under real concurrent load on real
// atomics, designed to run under -race. Each test encodes the
// structure's own invariant — element conservation and per-producer
// FIFO for the queue, lost-update freedom and monotone versions for the
// register — rather than just "does not crash".

// stressN scales iteration counts down under -short and up when many
// cores are available to actually interleave.
func stressN(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 10
	}
	return full
}

// item tags a value with its producer and per-producer sequence so
// consumers can check conservation and order.
type item struct {
	producer int
	seq      int
}

// checkConservation asserts every (producer, seq) in [0,perProducer)
// × [0,producers) was consumed exactly once, and that each consumer saw
// each producer's items in FIFO order.
func checkConservation(t *testing.T, consumed [][]item, producers, perProducer int) {
	t.Helper()
	seen := make([][]bool, producers)
	for p := range seen {
		seen[p] = make([]bool, perProducer)
	}
	total := 0
	for ci, items := range consumed {
		last := make([]int, producers)
		for p := range last {
			last[p] = -1
		}
		for _, it := range items {
			if it.producer < 0 || it.producer >= producers || it.seq < 0 || it.seq >= perProducer {
				t.Fatalf("consumer %d saw out-of-range item %+v", ci, it)
			}
			if seen[it.producer][it.seq] {
				t.Fatalf("item %+v consumed twice", it)
			}
			seen[it.producer][it.seq] = true
			total++
			if it.seq <= last[it.producer] {
				t.Fatalf("consumer %d saw producer %d seq %d after seq %d (FIFO violated)",
					ci, it.producer, it.seq, last[it.producer])
			}
			last[it.producer] = it.seq
		}
	}
	if want := producers * perProducer; total != want {
		t.Fatalf("consumed %d items, want %d (lost elements)", total, want)
	}
}

func TestStressQueue(t *testing.T) {
	const producers, consumers = 4, 4
	perProducer := stressN(t, 5000)
	q := NewQueue[item]()
	consumed := make([][]item, consumers)
	var wg sync.WaitGroup
	var done sync.WaitGroup
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done.Done()
			for s := 0; s < perProducer; s++ {
				q.Enqueue(item{producer: p, seq: s})
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				it, ok := q.Dequeue()
				if ok {
					consumed[c] = append(consumed[c], it)
					continue
				}
				select {
				case <-stop:
					// Producers finished; drain what's left and exit.
					for {
						it, ok := q.Dequeue()
						if !ok {
							return
						}
						consumed[c] = append(consumed[c], it)
					}
				default:
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()
	checkConservation(t, consumed, producers, perProducer)
	if q.Len() != 0 {
		t.Fatalf("drained queue has Len %d", q.Len())
	}
}

func TestStressRegister(t *testing.T) {
	const writers = 4
	perWriter := stressN(t, 5000)
	r := NewRegister(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Update(func(v int) int { return v + 1 })
			}
		}()
	}
	// Readers: the (value, version) pair they see must be monotonically
	// non-decreasing — versions never go backwards.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastVer uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, ver := r.Read()
				if ver < lastVer {
					t.Errorf("register version went backwards: %d after %d", ver, lastVer)
					return
				}
				lastVer = ver
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	want := writers * perWriter
	if v, ver := r.Read(); v != want || ver != uint64(want) {
		t.Fatalf("final (value, version) = (%d, %d), want (%d, %d) — lost updates", v, ver, want, want)
	}
}
