package obs_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/obs"
	"repro/internal/rtime"
	"repro/internal/trace"
)

// recordReference runs the reference workload once and returns its full
// event stream and horizon: the raw material the allocation tests
// replay through fresh pipelines, time-shifted pass by pass so the
// stream stays nondecreasing and job keys never collide.
func recordReference(t testing.TB) ([]trace.Event, rtime.Time) {
	const horizon = rtime.Time(60_000)
	rec := trace.NewRecorder(0)
	runWith(t, testTasks(t), horizon, rec.Record)
	if rec.Len() < 1000 {
		t.Fatalf("reference run too small: %d events", rec.Len())
	}
	// Keep only jobs that depart within the recording: jobs cut off
	// mid-flight by the horizon have no departure event, so each replay
	// pass would leave their state live forever — a harness artifact,
	// not pipeline behavior (a real run seals them in Finish).
	departed := make(map[[2]int]bool)
	for _, e := range rec.Events() {
		if e.Kind == trace.Complete || e.Kind == trace.AbortDone {
			departed[[2]int{e.Task, e.Seq}] = true
		}
	}
	var events []trace.Event
	for _, e := range rec.Events() {
		if e.Task < 0 || e.Kind == trace.SchedPass || e.Kind == trace.FeasOK || e.Kind == trace.FeasFail ||
			departed[[2]int{e.Task, e.Seq}] {
			events = append(events, e)
		}
	}
	return events, horizon
}

// replay feeds one time-shifted pass of the reference stream into p.
// Seq is offset per pass so (task, seq) job keys are fresh each time —
// the span fold retires departed jobs, so repeated keys of still-live
// jobs would be duplicate arrivals.
func replay(p *obs.Pipeline, events []trace.Event, pass int, span rtime.Time) {
	atOff := rtime.Time(pass) * span
	seqOff := pass * 1_000_000
	for _, e := range events {
		e.At += atOff
		e.Seq += seqOff
		p.Observe(e)
	}
}

// warmup is how many replay passes bring a pipeline to its steady
// state: the ring is full, the maps are sized, the span pool is primed
// and every ops histogram has counted the small attempt values it will
// see.
const warmup = 2

// maxWarmPassBytes bounds the heap bytes one warm replay pass may
// allocate. Per-object ops histograms that kept every attempt count
// as a sample cost about 10 KB a pass of this stream, in the amortized
// growth of their sample slices.
const maxWarmPassBytes = 1 << 10

// heapAllocBytes reads the cumulative bytes the heap has allocated. The
// metric counts a small allocation only once its span leaves the
// per-P cache, so a GC flushes the caches first.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestPipelineSteadyStateAllocs pins the streaming pipeline's
// steady-state behavior: once warm, replaying thousands of events
// allocates at most a small constant, in count and in bytes. A
// regression that buffers events, re-allocates per event, or keeps a
// per-commit sample (a growing slice allocates rarely but many bytes)
// trips it.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	events, span := recordReference(t)
	const measured = 5
	p, err := obs.NewPipeline(obs.Config{
		Horizon:      span * rtime.Time(warmup+2*measured+4),
		CPUs:         1,
		SeriesWindow: rtime.Duration(span), // one window per pass: O(passes) points
		Flight:       256,
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := 0
	for ; pass < warmup; pass++ {
		replay(p, events, pass, span)
	}
	avg := testing.AllocsPerRun(measured, func() {
		replay(p, events, pass, span)
		pass++
	})
	// Every job in the reference stream departs, so a warm pass must be
	// allocation-free: states come from the pool, map entries and segment
	// slices are reused, the ring overwrites in place. A tiny slack
	// absorbs incidental runtime rebalancing.
	if avg > 4 {
		t.Fatalf("steady-state pass of %d events allocated %.0f times, want ≈ 0", len(events), avg)
	}
	heapAllocBytes() // the first read allocates the metrics table
	before := heapAllocBytes()
	for end := pass + measured; pass < end; pass++ {
		replay(p, events, pass, span)
	}
	perPass := (heapAllocBytes() - before) / measured
	t.Logf("warm pass of %d events: %d heap bytes", len(events), perPass)
	if perPass > maxWarmPassBytes {
		t.Fatalf("steady-state pass of %d events allocated %d bytes, want ≤ %d", len(events), perPass, maxWarmPassBytes)
	}
	if p.Snapshot().Events == 0 || p.Snapshot().Commits == 0 {
		t.Fatal("replay folded nothing; allocation check is vacuous")
	}
}

// BenchmarkPipelineObserve measures the per-event cost of the full
// pipeline (span fold + series fold + ops fold + flight ring) in its
// steady state, after the same warm-up as
// TestPipelineSteadyStateAllocs. The interesting number is B/op: the
// streaming observability claim is that it stays at zero once warm.
func BenchmarkPipelineObserve(b *testing.B) {
	b.StopTimer()
	events, span := recordReference(b)
	passes := warmup + b.N/len(events) + 2
	p, err := obs.NewPipeline(obs.Config{
		Horizon:      span * rtime.Time(passes+2),
		CPUs:         1,
		SeriesWindow: rtime.Duration(span),
		Flight:       1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	for pass := 0; pass < warmup; pass++ {
		replay(p, events, pass, span)
	}
	b.ReportAllocs()
	b.StartTimer()
	pass, i := warmup, 0
	atOff := span * rtime.Time(pass)
	seqOff := pass * 1_000_000
	for n := 0; n < b.N; n++ {
		e := events[i]
		e.At += atOff
		e.Seq += seqOff
		p.Observe(e)
		i++
		if i == len(events) {
			i = 0
			pass++
			atOff = span * rtime.Time(pass)
			seqOff = pass * 1_000_000
		}
	}
}
