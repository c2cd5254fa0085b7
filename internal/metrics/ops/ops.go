// Package ops folds a raw trace event stream into per-operation retry
// telemetry: for every shared object, the distribution of ATTEMPTS a
// committed access needed (1 + CAS failures) and of the CAS FAILURES
// themselves. This is the measured analogue of the paper's §4 retry
// analysis — Theorem 2 bounds worst-case retries per access; these
// histograms show where the observed tail actually sits — and the raw
// material for the Atalar-style throughput predictor
// (internal/metrics/predict), whose fit consumes the mean failure rate.
//
// No new engine events exist for this: the fold reuses the existing
// vocabulary. A trace.Retry or trace.FaultRetry names the object whose
// access restarts; the job's eventual trace.Commit on that object
// closes the operation and records attempts = failures + 1. Lock-based
// runs therefore produce all-ones attempt distributions (a blocked
// access waits, it never retries), which is exactly the calibration
// baseline the predictor wants.
//
// Like internal/metrics/series, folding sorts by virtual time first, so
// the partitioned engine's per-partition streams fold identically to a
// globally ordered one, and Merge is associative over shards — both are
// required for cross-`-jobs` byte-identity.
package ops

import (
	"sort"

	"repro/internal/metrics/hist"
	"repro/internal/trace"
)

// histCap bounds the Exp2 histograms: per-access attempt counts are
// small (Theorem 2 bounds them by the conflict count), so 2^12 leaves
// generous headroom while keeping bucket-degraded quantiles tight.
const histCap = 1 << 12

// Dist is the telemetry of one operation kind (one shared object).
type Dist struct {
	Object   int        // object id, or -1 for the cross-object total
	Ops      int64      // committed operations
	Attempts *hist.Hist // attempts per committed operation (≥ 1)
	Failures *hist.Hist // CAS failures per committed operation (≥ 0)
}

// newDist allocates an empty distribution for obj.
func newDist(obj int) *Dist {
	return &Dist{Object: obj, Attempts: hist.Exp2(histCap), Failures: hist.Exp2(histCap)}
}

// record closes one committed operation that needed fails CAS failures.
func (d *Dist) record(fails int64) {
	d.Ops++
	d.Attempts.Add(fails + 1)
	d.Failures.Add(fails)
}

// Set holds the per-object distributions of one run, ascending by
// object id.
type Set struct {
	Dists []*Dist
}

// jobObj identifies one job's in-flight access to one object. Keying
// by (job, object) rather than job alone tolerates streams where an
// abort leaves a dangling retry counter: the counter can only ever be
// consumed by a commit on the same object by the same job.
type jobObj struct {
	task, seq, obj int
}

// Stream folds a trace event stream into per-object operation
// telemetry online, one event at a time. The fold is per-(job, object)
// and order-insensitive within a job's access — fed the events
// FromEvents sorts, in any time order, it produces an identical Set —
// and its memory is O(objects + in-flight accesses) regardless of trace
// length: the histograms count attempt and failure values below 64 per
// value, and keep a sample only for the rare access that failed that
// often (at most hist.DefaultExactCap per histogram).
type Stream struct {
	byObj   map[int]*Dist
	pending map[jobObj]int64 // open operation → CAS failures so far
	total   *Dist            // cross-object running total (Object = -1)
}

// NewStream builds an online operation-telemetry folder.
func NewStream() *Stream {
	return &Stream{byObj: map[int]*Dist{}, pending: map[jobObj]int64{}, total: newDist(-1)}
}

// Total returns the live cross-object distribution (Object = -1). It is
// maintained incrementally — reading it costs nothing — and agrees with
// Set().Total() on counts, sums, extremes, and quantiles (samples are
// multiset-equal; both render sorted).
func (s *Stream) Total() *Dist { return s.total }

// dist returns (allocating on first use) the distribution for obj.
func (s *Stream) dist(obj int) *Dist {
	d := s.byObj[obj]
	if d == nil {
		d = newDist(obj)
		s.byObj[obj] = d
	}
	return d
}

// Observe folds one event. Events that name no object or no job are
// ignored.
func (s *Stream) Observe(e trace.Event) {
	if e.Object < 0 || e.Task < 0 {
		return
	}
	k := jobObj{e.Task, e.Seq, e.Object}
	switch e.Kind {
	case trace.Retry, trace.FaultRetry:
		s.pending[k]++
	case trace.Commit:
		s.dist(e.Object).record(s.pending[k])
		s.total.record(s.pending[k])
		delete(s.pending, k)
	case trace.LockRelease:
		// A lock-based access commits by releasing its lock: count it
		// as a one-attempt operation so both modes share an axis.
		s.dist(e.Object).record(0)
		s.total.record(0)
	}
}

// Set returns the folded distributions, ascending by object id. Open
// (uncommitted) accesses contribute nothing, exactly as in FromEvents.
func (s *Stream) Set() *Set {
	out := &Set{}
	objs := make([]int, 0, len(s.byObj))
	for obj := range s.byObj {
		objs = append(objs, obj)
	}
	sort.Ints(objs)
	for _, obj := range objs {
		out.Dists = append(out.Dists, s.byObj[obj])
	}
	return out
}

// FromEvents folds events into per-object operation telemetry. Events
// are sorted by virtual time first (stable), so any interleaving of
// per-partition streams folds identically.
func FromEvents(events []trace.Event) *Set {
	evs := make([]trace.Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	s := NewStream()
	for _, e := range evs {
		s.Observe(e)
	}
	return s.Set()
}

// Merge folds o into s: distributions of the same object merge
// (exact-count associative, see hist.Merge); new objects are inserted
// keeping ascending order. Shard-order independence makes the
// cross-`-jobs` report byte-identical.
func (s *Set) Merge(o *Set) error {
	for _, od := range o.Dists {
		i := sort.Search(len(s.Dists), func(i int) bool { return s.Dists[i].Object >= od.Object })
		if i < len(s.Dists) && s.Dists[i].Object == od.Object {
			d := s.Dists[i]
			d.Ops += od.Ops
			if err := d.Attempts.Merge(od.Attempts); err != nil {
				return err
			}
			if err := d.Failures.Merge(od.Failures); err != nil {
				return err
			}
			continue
		}
		nd := newDist(od.Object)
		nd.Ops = od.Ops
		if err := nd.Attempts.Merge(od.Attempts); err != nil {
			return err
		}
		if err := nd.Failures.Merge(od.Failures); err != nil {
			return err
		}
		s.Dists = append(s.Dists, nil)
		copy(s.Dists[i+1:], s.Dists[i:])
		s.Dists[i] = nd
	}
	return nil
}

// Total merges all objects into one cross-object distribution
// (Object = -1). An empty set totals to an empty distribution.
func (s *Set) Total() *Dist {
	t := newDist(-1)
	for _, d := range s.Dists {
		t.Ops += d.Ops
		// Same fixed bounds by construction; Merge cannot fail.
		_ = t.Attempts.Merge(d.Attempts)
		_ = t.Failures.Merge(d.Failures)
	}
	return t
}

// FailureRate returns mean CAS failures per committed operation — the
// predictor's x-axis. Zero when no operations committed.
func (d *Dist) FailureRate() float64 {
	if d.Ops == 0 {
		return 0
	}
	return float64(d.Failures.Sum()) / float64(d.Ops)
}
