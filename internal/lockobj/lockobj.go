// Package lockobj provides mutex-based counterparts to the lock-free
// queue and register in internal/lockfree, with the same access
// methods. They exist for the apples-to-apples access-time comparison
// of the paper's Fig 8: the same workload driven through a lock-based
// object measures r, and through the lock-free twin measures s.
// Blocking episodes (lock acquisitions that had to wait) are counted,
// mirroring the retry counters on the lock-free side.
package lockobj

import (
	"sync"
	"sync/atomic"
)

// countingMutex is a mutex that counts the acquisitions that had to
// wait for it.
type countingMutex struct {
	mu     sync.Mutex
	blocks atomic.Int64
}

func (m *countingMutex) lock() {
	if !m.mu.TryLock() {
		m.blocks.Add(1)
		m.mu.Lock()
	}
}

func (m *countingMutex) unlock() { m.mu.Unlock() }

// Blockings returns how many operations had to wait for the lock.
func (m *countingMutex) Blockings() int64 { return m.blocks.Load() }

// Queue is a mutex-protected FIFO queue.
type Queue[T any] struct {
	countingMutex
	items []T
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Enqueue appends v to the tail.
func (q *Queue[T]) Enqueue(v T) {
	q.lock()
	defer q.unlock()
	q.items = append(q.items, v)
}

// Dequeue removes and returns the head element; ok is false when empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	q.lock()
	defer q.unlock()
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of elements.
func (q *Queue[T]) Len() int {
	q.lock()
	defer q.unlock()
	return len(q.items)
}

// Register is a mutex-protected value cell with versioning.
type Register[T any] struct {
	countingMutex
	val T
	ver uint64
}

// NewRegister returns a register holding initial.
func NewRegister[T any](initial T) *Register[T] {
	return &Register[T]{val: initial}
}

// Read returns the current value and version.
func (r *Register[T]) Read() (T, uint64) {
	r.lock()
	defer r.unlock()
	return r.val, r.ver
}

// Write installs v and returns the new version.
func (r *Register[T]) Write(v T) uint64 {
	r.lock()
	defer r.unlock()
	r.val = v
	r.ver++
	return r.ver
}

// Update applies f to the current value under the lock.
func (r *Register[T]) Update(f func(T) T) uint64 {
	r.lock()
	defer r.unlock()
	r.val = f(r.val)
	r.ver++
	return r.ver
}
