package experiment

import (
	"fmt"
	"sync"
)

// FigMemo caches the tables a report attaches for each figure id, once
// per memo. The rtsimd daemon owns one for its lifetime; batch callers
// leave Profile.FigMemo nil, and a nil memo computes every time.
//
// The key is (id, Name, HorizonMult, Seeds). Every Registry runner is a
// pure function of those fields: Jobs never changes a byte, and
// attachFigs clears the fault and stoch overlays (which only the traced
// canonical-workload runs read) before a runner sees the profile, so a
// hit is exact. Only successes are kept: a runner error goes to the
// caller that ran it and to any caller already waiting on that run, and
// the next lookup runs it again. Callers that miss on one key at once
// share a single run — a full-profile figure costs minutes of CPU.
//
// The zero value is ready to use. Returned tables are shared between
// callers and must not be modified.
type FigMemo struct {
	mu      sync.Mutex
	entries map[figKey]*figEntry
	hits    int64
	misses  int64
}

// figKey is one memo key. Seeds is rendered with %v: a slice cannot
// key a map.
type figKey struct {
	id          string
	name        string
	horizonMult int
	seeds       string
}

// figEntry is one memoized run; done closes once tables and err are set.
type figEntry struct {
	done   chan struct{}
	tables []*Table
	err    error
}

// FigMemoStats are a memo's exact counters. Hits counts lookups served
// without running the figure, including callers that waited on a run in
// progress; Misses counts runs started; Entries counts stored and
// in-progress figures.
type FigMemoStats struct {
	Hits, Misses int64
	Entries      int
}

// Stats snapshots the counters. A nil memo reads all zero.
func (m *FigMemo) Stats() FigMemoStats {
	if m == nil {
		return FigMemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return FigMemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}

// tables returns figure id's tables under p, from the memo when it
// holds them and from run(p) otherwise.
func (m *FigMemo) tables(id string, run Runner, p Profile) ([]*Table, error) {
	if m == nil {
		return run(p)
	}
	k := figKey{id: id, name: p.Name, horizonMult: p.HorizonMult, seeds: fmt.Sprint(p.Seeds)}
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		m.hits++
		m.mu.Unlock()
		<-e.done
		return e.tables, e.err
	}
	if m.entries == nil {
		m.entries = map[figKey]*figEntry{}
	}
	e := &figEntry{done: make(chan struct{})}
	m.entries[k] = e
	m.misses++
	m.mu.Unlock()

	e.tables, e.err = run(p)
	if e.err != nil {
		m.mu.Lock()
		delete(m.entries, k)
		m.mu.Unlock()
	}
	close(e.done)
	return e.tables, e.err
}
