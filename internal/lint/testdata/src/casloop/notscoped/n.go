// Package notscoped carries the stale-expected shape outside
// internal/lockfree and internal/lockobj: the casloop analyzer must
// stay silent here.
package notscoped

import "sync/atomic"

type counter struct{ v atomic.Int64 }

func (c *counter) badButOutOfScope(delta int64) {
	old := c.v.Load()
	for {
		if c.v.CompareAndSwap(old, old+delta) {
			return
		}
	}
}
