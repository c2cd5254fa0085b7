package lockobj

import (
	"runtime"
	"sync"
	"testing"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.Dequeue(); ok {
		t.Fatal("empty queue dequeued")
	}
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 5; i++ {
		if v, ok := q.Dequeue(); !ok || v != i {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
}

func TestQueueConcurrent(t *testing.T) {
	q := NewQueue[int]()
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(g*per + i)
			}
		}(g)
	}
	wg.Wait()
	seen := map[int]bool{}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("dup %d", v)
		}
		seen[v] = true
	}
	if len(seen) != goroutines*per {
		t.Fatalf("got %d values", len(seen))
	}
}

func TestRegister(t *testing.T) {
	r := NewRegister(5)
	if v, ver := r.Read(); v != 5 || ver != 0 {
		t.Fatalf("Read = (%d,%d)", v, ver)
	}
	r.Write(7)
	r.Update(func(v int) int { return v * 3 })
	if v, ver := r.Read(); v != 21 || ver != 2 {
		t.Fatalf("Read = (%d,%d), want (21,2)", v, ver)
	}
}

func TestRegisterConcurrentIncrements(t *testing.T) {
	r := NewRegister(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Update(func(v int) int { return v + 1 })
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Read(); v != 16000 {
		t.Fatalf("value = %d, want 16000", v)
	}
}

// waitsOnce runs op while the test holds m and asserts that op counted
// exactly one blocking episode and finished once m was released.
func waitsOnce(t *testing.T, m *countingMutex, op func()) {
	t.Helper()
	before := m.Blockings()
	m.lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	for m.Blockings() == before {
		runtime.Gosched()
	}
	m.unlock()
	<-done
	if got := m.Blockings() - before; got != 1 {
		t.Fatalf("Blockings rose by %d, want 1", got)
	}
}

// An uncontended access never blocks; an access that finds the lock
// held counts one blocking episode and completes once it is released.
func TestBlockings(t *testing.T) {
	q := NewQueue[int]()
	q.Enqueue(1)
	q.Dequeue()
	r := NewRegister(0)
	r.Write(1)
	r.Update(func(v int) int { return v + 1 })
	r.Read()
	if q.Blockings() != 0 || r.Blockings() != 0 {
		t.Fatalf("uncontended Blockings = (%d, %d), want (0, 0)", q.Blockings(), r.Blockings())
	}
	waitsOnce(t, &q.countingMutex, func() { q.Enqueue(7) })
	if v, ok := q.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d,%v), want (7,true)", v, ok)
	}
	waitsOnce(t, &r.countingMutex, func() { r.Update(func(v int) int { return v * 10 }) })
	if v, ver := r.Read(); v != 20 || ver != 3 {
		t.Fatalf("Read = (%d,%d), want (20,3)", v, ver)
	}
}
