package rua

// Benchmarks holding the incremental feasibility tree against the
// retained slice reference at scale: one selectFull-shaped pass (insert
// every live job's chain, feasibility check after each insertion) over
// n ∈ 10²–10⁴ live jobs. The slice reference pays O(n) per insert
// (memmove) and O(n) per feasibility walk — Θ(n²) per pass — while the
// tree pays O(log n) for both; the ratio at n=10⁴ is the PR's headline
// speedup for the scheduler side. Run:
//
//	go test -run NONE -bench BenchmarkFeas -benchmem ./internal/rua/
import (
	"fmt"
	"testing"

	"repro/internal/rtime"
	"repro/internal/task"
)

// benchJobs builds n single-job chains with clustered critical times
// (forcing effC ties like the scale workload's clusters do).
func benchJobs(n int) [][]*task.Job {
	chains := make([][]*task.Job, n)
	for i := range chains {
		// Critical times scale with n so the full pass stays feasible
		// (Σ comp < every C), clustered into 37 groups to force effC ties.
		c := rtime.Duration(100*n + 1000*(i%37))
		comp := rtime.Duration(5 + i%16)
		chains[i] = []*task.Job{mkJob(i, 1+float64(i%5), c, comp, 0)}
	}
	return chains
}

func BenchmarkFeasTreePass(b *testing.B) {
	const acc = rtime.Duration(10)
	for _, n := range []int{100, 1000, 10_000} {
		chains := benchJobs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ops int64
			jobs := make([]*task.Job, n)
			for i, ch := range chains {
				jobs[i] = ch[0]
			}
			ft := &feasTree{ops: &ops, snap: snapOf(jobs, acc)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ft.reset(n)
				for _, ch := range chains {
					ft.insertChain(ch)
					if !ft.feasible(0) {
						b.Fatal("bench world must stay feasible")
					}
					ft.journal = ft.journal[:0]
				}
			}
		})
	}
}

func BenchmarkFeasSliceRefPass(b *testing.B) {
	const acc = rtime.Duration(10)
	for _, n := range []int{100, 1000, 10_000} {
		chains := benchJobs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ops int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := &schedule{ops: &ops}
				for _, ch := range chains {
					s.insertChain(ch)
					if !s.feasible(0, acc) {
						b.Fatal("bench world must stay feasible")
					}
					s.journal = s.journal[:0]
				}
			}
		})
	}
}
