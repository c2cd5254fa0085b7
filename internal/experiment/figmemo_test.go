package experiment

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/stoch"
)

// TestFiguresIgnoreOverlays pins what attachFigs relies on when it
// clears the overlays before running a figure: no registered
// experiment reads Profile.Fault or Profile.Stoch, so an active fault
// and stoch plan leave every table and error byte unchanged.
func TestFiguresIgnoreOverlays(t *testing.T) {
	fp, err := fault.ParsePlan("light")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stoch.ParsePlan("geo")
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Active() || !sp.Active() {
		t.Fatalf("overlay plans inactive: fault %v, stoch %v", fp.Active(), sp.Active())
	}
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			plain, plainErr := renderFig(Quick, id)
			p := Quick
			p.Fault, p.Stoch = fp, sp
			over, overErr := renderFig(p, id)
			if plainErr != overErr {
				t.Fatalf("error mismatch: plain %q, overlays %q", plainErr, overErr)
			}
			if plain != over {
				t.Fatalf("tables differ under overlays:\n--- plain ---\n%s\n--- overlays ---\n%s", plain, over)
			}
		})
	}
}

// TestFigMemoKeyCoversProfile sorts every Profile field into the memo
// key or the list of fields a figure never sees or that move no byte.
// A new field fails here until it is placed on one list (and, if keyed,
// added to figKey).
func TestFigMemoKeyCoversProfile(t *testing.T) {
	keyed := map[string]bool{"Name": true, "HorizonMult": true, "Seeds": true}
	neutral := map[string]bool{
		"Jobs":    true, // tables are byte-identical for any worker count
		"Fault":   true, // cleared by attachFigs
		"Stoch":   true, // cleared by attachFigs
		"FigMemo": true, // the memo itself
	}
	pt := reflect.TypeOf(Profile{})
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		if keyed[name] == neutral[name] {
			t.Errorf("Profile.%s is on neither list (or on both): key it in figKey or name it neutral", name)
		}
	}
	if got, want := reflect.TypeOf(figKey{}).NumField(), len(keyed)+1; got != want {
		t.Errorf("figKey has %d fields, want %d (the id plus each keyed Profile field)", got, want)
	}
}

// TestFigMemo: concurrent misses on one key run the figure once and
// share its tables; a failed run is not stored; a nil memo runs every
// time; keys differing in a keyed field do not collide.
func TestFigMemo(t *testing.T) {
	var m FigMemo
	var runs atomic.Int64
	release := make(chan struct{})
	want := []*Table{{ID: "x"}}
	slow := func(Profile) ([]*Table, error) {
		runs.Add(1)
		<-release
		return want, nil
	}

	const callers = 4
	got := make([][]*Table, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			tables, err := m.tables("x", slow, Quick)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = tables
		}(i)
	}
	// Every caller but the runner is a hit waiting on the run.
	for st := m.Stats(); st.Hits+st.Misses < callers; st = m.Stats() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("figure ran %d times for %d concurrent callers, want 1", n, callers)
	}
	for i, tables := range got {
		if len(tables) != 1 || tables[0] != want[0] {
			t.Errorf("caller %d got %v, want the shared tables", i, tables)
		}
	}
	if st := m.Stats(); st != (FigMemoStats{Hits: callers - 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats after shared run = %+v", st)
	}

	full := Quick
	full.Name, full.HorizonMult = Full.Name, Full.HorizonMult
	if _, err := m.tables("x", slow, full); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("a different profile reused another key's tables (runs = %d, want 2)", n)
	}

	boom := errors.New("bound violated")
	var failed atomic.Int64
	failing := func(Profile) ([]*Table, error) {
		failed.Add(1)
		return nil, boom
	}
	for i := 0; i < 2; i++ {
		if _, err := m.tables("y", failing, Quick); !errors.Is(err, boom) {
			t.Fatalf("failing figure returned %v, want %v", err, boom)
		}
	}
	if n := failed.Load(); n != 2 {
		t.Errorf("failing figure ran %d times over two lookups, want 2 (errors are not stored)", n)
	}
	if st := m.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d after one failed figure, want 2", st.Entries)
	}

	var none *FigMemo
	before := runs.Load()
	for i := 0; i < 2; i++ {
		if _, err := none.tables("x", slow, Quick); err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Load() - before; n != 2 {
		t.Errorf("nil memo ran the figure %d times over two lookups, want 2", n)
	}
}
