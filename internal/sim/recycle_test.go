package sim

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/trace"
	"repro/internal/uam"
)

// recycleLoad is a lock-free run of the recycling tasks, unobserved
// unless obs is set.
func recycleLoad(horizon rtime.Time, obs func(trace.Event)) Config {
	return Config{
		Tasks: recycleTasks(10, false, 0), Scheduler: rua.NewLockFree(), Mode: LockFree,
		R: 40, S: 7, OpCost: 0.5, Horizon: horizon,
		ArrivalKind: uam.KindJittered, Seed: 1, Observer: obs,
	}
}

// TestJobRecordsAtPeakLive: a run that does not keep its jobs allocates
// one record per job live at its peak, not one per arrival: every
// record is either held by a live job or waiting for reuse, and a new
// one is made only when none waits. Finish, which folds the jobs still
// live, may be called again without changing the result.
func TestJobRecordsAtPeakLive(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		var live, peak int
		cfg := recycleLoad(400_000, func(ev trace.Event) {
			switch ev.Kind {
			case trace.Arrival:
				live++
				peak = max(peak, live)
			case trace.Complete, trace.AbortDone:
				live--
			}
		})
		var k *kernel
		var r Result
		if cpus == 1 {
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			k, r = &e.kernel, e.Run()
		} else {
			e, err := NewGlobal(cfg, cpus)
			if err != nil {
				t.Fatal(err)
			}
			k, r = &e.kernel, e.Run()
		}
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if again := k.Finish(); !reflect.DeepEqual(again, r) {
			t.Errorf("%d CPUs: a second Finish changed the result: %+v, then %+v", cpus, r, again)
		}
		records := len(k.spare) + len(k.live)
		if records != peak || int64(peak) >= r.Arrivals {
			t.Errorf("%d CPUs: %d job records for a peak of %d live jobs over %d arrivals", cpus, records, peak, r.Arrivals)
		}
	}
}

// TestAllocPerArrivalFlat: growing the horizon tenfold adds almost
// nothing per extra arrival, on the uniprocessor and the global engine,
// fault-free and under fault.Heavy's jitter and bursts. Arrivals are
// drawn one pending release per task, job records are reused after
// departure and run statistics fold online, so what a run allocates
// follows its peak live state, not its arrivals. Partitioned runs are
// not measured: multi.Run keeps every job record (KeepJobs).
func TestAllocPerArrivalFlat(t *testing.T) {
	allocs := func() int64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
	for _, tc := range []struct {
		name string
		cpus int
		plan *fault.Plan
	}{
		{"uniprocessor", 1, nil},
		{"uniprocessor/heavy", 1, fault.Heavy()},
		{"global2", 2, nil},
		{"global2/heavy", 2, fault.Heavy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(h rtime.Time) (int64, int64) {
				cfg := recycleLoad(h, nil)
				cfg.Fault = tc.plan
				a0 := allocs()
				var r Result
				if tc.cpus == 1 {
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					r = e.Run()
				} else {
					e, err := NewGlobal(cfg, tc.cpus)
					if err != nil {
						t.Fatal(err)
					}
					r = e.Run()
				}
				a1 := allocs()
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				return a1 - a0, r.Arrivals
			}
			const h = 200_000
			run(h) // one-time lazy initialisation stays out of the comparison
			b1, n1 := run(h)
			b10, n10 := run(10 * h)
			per := float64(b10-b1) / float64(n10-n1)
			t.Logf("%d B over %d arrivals, %d B over %d: %.1f B per extra arrival", b1, n1, b10, n10, per)
			if per > 8 {
				t.Fatalf("%.1f B per extra arrival, want at most 8", per)
			}
		})
	}
}
