// Package lockfree provides the two lock-free shared objects behind the
// repo's hardware check of the paper's Fig 8 claim (r ≫ s): the
// Michael–Scott queue [21], the object the paper's evaluation shares
// among its tasks (§6), and a multi-writer multi-reader register (§7).
// internal/lockobj holds their mutex twins.
//
// Lock-free objects guarantee that SOME operation completes in a finite
// number of steps; an individual operation may be forced to retry when a
// concurrent operation changes the object between its read and its
// compare-and-swap. Both objects count those retries with an atomic
// counter, exposing exactly the per-access retry quantity that Theorem 2
// bounds (f_i). The counters add one uncontended atomic add per retry —
// negligible next to the CAS traffic being measured — and can be read
// and reset without stopping the object.
//
// Both objects allocate per node (or per register cell) and rely on Go's
// garbage collector for safe memory reclamation, which sidesteps the ABA
// problem without hazard pointers or tags: an address cannot be reused
// while any thread still holds a pointer to it.
package lockfree
