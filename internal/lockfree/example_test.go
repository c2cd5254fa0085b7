package lockfree_test

import (
	"fmt"

	"repro/internal/lockfree"
)

func ExampleQueue() {
	q := lockfree.NewQueue[string]()
	q.Enqueue("plot-1")
	q.Enqueue("plot-2")
	v, _ := q.Dequeue()
	fmt.Println(v, q.Len())
	// Output: plot-1 1
}

func ExampleRegister() {
	r := lockfree.NewRegister(10)
	r.Update(func(v int) int { return v * 3 })
	v, version := r.Read()
	fmt.Println(v, version)
	// Output: 30 1
}
