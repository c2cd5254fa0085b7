package sim

import (
	"repro/internal/rtime"
	"repro/internal/task"
)

// Sums are a run's per-job outcome sums, from which metrics.Analyze
// derives its RunStats. Except for Retries and Blockings they count
// only the jobs whose critical time lies inside the horizon: a job
// released near the end whose outcome the run cannot observe would
// otherwise bias the ratios downward.
type Sums struct {
	Released  int64 // jobs whose critical time lies inside the horizon
	Completed int64
	Met       int64 // completed before their critical times
	Aborted   int64 // aborted, or still in their abort handler at the horizon

	// The utility sums are floating point, so they depend on the order
	// of their terms: both add the jobs in release order.
	AccruedUtility float64 // over completed jobs
	MaxUtility     float64

	SojournSum rtime.Duration // over completed jobs
	MaxSojourn rtime.Duration

	Retries   int64 // lock-free retries of every released job
	Blockings int64 // lock-based blocking episodes of every released job
}

// Fold adds j, a job of a run over horizon, to s. Folding a run's jobs
// in release order gives the sums the engine folds online.
func (s *Sums) Fold(j *task.Job, horizon rtime.Time) {
	s.release(j, horizon)
	if u, adds, _ := s.depart(j, horizon); adds {
		s.AccruedUtility += u
	}
}

// release adds what j contributes when it is released and reports
// whether it counts, that is whether its critical time lies inside
// the horizon.
//
//rtlint:noalloc per-event path
func (s *Sums) release(j *task.Job, horizon rtime.Time) bool {
	if j.AbsoluteCriticalTime() > horizon {
		return false
	}
	s.Released++
	s.MaxUtility += j.Task.TUF.MaxUtility()
	return true
}

// depart adds j's outcome except its accrued utility, which it returns
// with whether j adds any; the caller adds it in release order. counts
// reports whether j counts at all, as release did.
//
//rtlint:noalloc per-event path
func (s *Sums) depart(j *task.Job, horizon rtime.Time) (u float64, adds, counts bool) {
	s.Retries += j.Retries
	s.Blockings += j.Blockings
	if j.AbsoluteCriticalTime() > horizon {
		return 0, false, false
	}
	switch j.State {
	case task.Completed:
		s.Completed++
		d := j.Sojourn()
		s.SojournSum += d
		s.MaxSojourn = max(s.MaxSojourn, d)
		if j.MetCriticalTime() {
			s.Met++
		}
		return j.AccruedUtility(), true, true
	case task.Aborted, task.Aborting:
		s.Aborted++
	}
	return 0, false, true
}

// utilWindow adds the accrued utility of departing jobs to the sums in
// release order. Every job takes the next rank at release. A job that
// counts holds its entry open until it departs; one that does not adds
// no utility, resolves its entry at once and must never resolve it
// again: once the head passes a rank its slot may hold a later one.
// Resolved entries at the head are added and dropped. A counted job
// leaves by its critical time plus any abort handlers queued before its
// own, so the window spans the releases of about one maximum critical
// time, not the run.
type utilWindow struct {
	ring       []utilEntry // rank r at r & (len(ring)-1); len is a power of two
	head, tail int64       // ranks [head, tail) are held
}

type utilEntry struct {
	u    float64
	open bool // the job counts and has not departed
	adds bool // the job completed: add u
}

// initialWindow is the window's starting capacity; it doubles when a
// release finds it full.
const initialWindow = 64

// open gives the job released now the next rank, pending its departure
// when it counts.
//
//rtlint:noalloc per-event path
func (w *utilWindow) open(counts bool, s *Sums) int64 {
	if w.tail-w.head == int64(len(w.ring)) {
		w.grow()
	}
	r := w.tail
	w.tail++
	w.ring[r&int64(len(w.ring)-1)] = utilEntry{open: counts}
	w.advance(s)
	return r
}

// resolve records the departure of the job of rank r and adds every
// resolved entry at the head.
//
//rtlint:noalloc per-event path
func (w *utilWindow) resolve(r int64, u float64, adds bool, s *Sums) {
	w.ring[r&int64(len(w.ring)-1)] = utilEntry{u: u, adds: adds}
	w.advance(s)
}

//rtlint:noalloc per-event path
func (w *utilWindow) advance(s *Sums) {
	mask := int64(len(w.ring) - 1)
	for w.head < w.tail {
		e := &w.ring[w.head&mask]
		if e.open {
			return
		}
		if e.adds {
			s.AccruedUtility += e.u
		}
		w.head++
	}
}

// grow doubles the ring, keeping every held rank at its index.
func (w *utilWindow) grow() {
	//rtlint:ignore noalloc doubles to the widest window; amortized
	ring := make([]utilEntry, max(2*len(w.ring), initialWindow))
	for r := w.head; r < w.tail; r++ {
		ring[r&int64(len(ring)-1)] = w.ring[r&int64(len(w.ring)-1)]
	}
	w.ring = ring
}
