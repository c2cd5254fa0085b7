package trace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rtime"
	"repro/internal/stoch"
	"repro/internal/trace"
)

// matchOracle fails t unless AppendPerfetto and WritePerfetto render
// events exactly as the fmt-based oracle does.
func matchOracle(t *testing.T, events []trace.Event) {
	t.Helper()
	var want bytes.Buffer
	if err := trace.OracleWritePerfetto(&want, events); err != nil {
		t.Fatal(err)
	}
	got := trace.AppendPerfetto([]byte("prefix"), events)
	if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		got = got[len("prefix"):]
		i := 0
		for i < len(got) && i < len(want.Bytes()) && got[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("AppendPerfetto differs from the oracle at byte %d of %d/%d (%d events):\ngot  %q\nwant %q",
			i, len(got), want.Len(), len(events), got[i:min(i+120, len(got))], want.Bytes()[i:min(i+120, want.Len())])
	}
	var w bytes.Buffer
	if err := trace.WritePerfetto(&w, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatal("WritePerfetto differs from the oracle")
	}
}

// eventLen is how many fuzz bytes decode into one event.
const eventLen = 15

// decodeEvents turns fuzz bytes into events over every Kind (and two
// past the last), tasks and objects from -1, CPUs from -1 to 3, few
// sequence numbers (so dispatches migrate and collide), unsorted times
// and Ops over the whole int64 range.
func decodeEvents(data []byte) []trace.Event {
	var events []trace.Event
	for ; len(data) >= eventLen; data = data[eventLen:] {
		c := data[:eventLen]
		events = append(events, trace.Event{
			At:     rtime.Time(binary.LittleEndian.Uint16(c[0:2])),
			Kind:   trace.Kind(int(c[2]) % (int(trace.Shed) + 3)),
			Task:   int(c[3]%7) - 1,
			Seq:    int(c[4] % 4),
			Object: int(c[5]%5) - 1,
			CPU:    int(c[6]%5) - 1,
			Ops:    int64(binary.LittleEndian.Uint64(c[7:15])),
		})
	}
	return events
}

// encodeEvent is decodeEvents' inverse for seed corpus entries.
func encodeEvent(at uint16, k trace.Kind, task, seq, obj, cpu int, ops int64) []byte {
	c := make([]byte, eventLen)
	binary.LittleEndian.PutUint16(c[0:2], at)
	c[2], c[3], c[4], c[5], c[6] = byte(k), byte(task+1), byte(seq), byte(obj+1), byte(cpu+1)
	binary.LittleEndian.PutUint64(c[7:15], uint64(ops))
	return c
}

// FuzzPerfettoMatchesOracle: on any event slice — every kind, unbound
// CPUs and objects, huge Ops, times out of order, jobs migrating
// between CPUs — AppendPerfetto renders the oracle's bytes.
func FuzzPerfettoMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	var migrate []byte
	for _, e := range [][]byte{
		encodeEvent(5, trace.Arrival, 0, 0, -1, -1, 0),
		encodeEvent(6, trace.Dispatch, 0, 0, -1, 0, 0),
		encodeEvent(9, trace.Dispatch, 0, 0, -1, 1, 0), // migrates, leaving CPU0's slice open
		encodeEvent(9, trace.Dispatch, 1, 0, -1, 0, 0),
		encodeEvent(3, trace.SchedPass, -1, -1, -1, -1, 1<<62),
		encodeEvent(12, trace.FeasFail, 1, 0, -1, 2, -7),
		encodeEvent(11, trace.Commit, 1, 0, 2, 0, 0),
		encodeEvent(20, trace.FaultStall, -1, -1, -1, 3, 50),
		encodeEvent(21, trace.Shed, 0, 1, -1, 1, 0),
	} {
		migrate = append(migrate, e...)
	}
	f.Add(migrate)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, eventLen*(1+r.Intn(64)))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchOracle(t, decodeEvents(data))
	})
}

// TestPerfettoMatchesOracleRandom runs the fuzz property over seeded
// random slices, so every test run covers more than the seed corpus.
func TestPerfettoMatchesOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		b := make([]byte, eventLen*r.Intn(200))
		r.Read(b)
		matchOracle(t, decodeEvents(b))
	}
}

// TestPerfettoMatchesOracleEngines holds AppendPerfetto to the oracle
// on real traces of every engine and synchronization mode, plain, under
// heavy fault injection and under the stochastic scheduler, at seeds
// drawn from a fixed source; and on flight-recorder windows of the same
// runs (partial timelines whose arrivals were overwritten), dumped as
// the run goes and at its end.
func TestPerfettoMatchesOracleEngines(t *testing.T) {
	heavy, geo := fault.Heavy(), stoch.Geo()
	r := rand.New(rand.NewSource(11))
	for _, ov := range []struct {
		name string
		set  func(p *experiment.Profile, seed int64)
	}{
		{"plain", func(*experiment.Profile, int64) {}},
		{"faults-heavy", func(p *experiment.Profile, seed int64) {
			pl := *heavy
			pl.Seed = seed
			p.Fault = &pl
		}},
		{"stoch-geo", func(p *experiment.Profile, seed int64) {
			pl := *geo
			pl.Seed = seed
			p.Stoch = &pl
		}},
	} {
		for _, simName := range []string{experiment.TraceSimUni, experiment.TraceSimMulti, experiment.TraceSimGlobal} {
			for _, lockBased := range []bool{false, true} {
				seed := 1 + r.Int63n(1000)
				p := experiment.Quick
				ov.set(&p, seed)
				name := ov.name + "/" + simName
				if lockBased {
					name += "/lockbased"
				}
				t.Run(name, func(t *testing.T) {
					tasks, horizon, err := experiment.TraceSetup(p)
					if err != nil {
						t.Fatal(err)
					}
					rec := trace.NewRecorder(0)
					flight := obs.NewFlight(256)
					n := 0
					observe := func(e trace.Event) {
						rec.Record(e)
						flight.Observe(e)
						if n++; n%2000 == 0 {
							matchOracle(t, flight.Events())
						}
					}
					if err := experiment.StreamTrace(p, simName, lockBased, seed, tasks, horizon, observe); err != nil {
						t.Fatal(err)
					}
					matchOracle(t, rec.Events())
					matchOracle(t, flight.Events())
					var dump bytes.Buffer
					if err := flight.WritePerfetto(&dump); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(dump.Bytes(), flight.AppendPerfetto(nil)) {
						t.Fatal("Flight.WritePerfetto and AppendPerfetto differ")
					}
				})
			}
		}
	}
}

// heapAllocBytes reads the cumulative bytes the heap has allocated,
// after a GC flushes the per-P caches the metric lags behind.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestWritePerfettoAllocs: exporting a traced run allocates at most
// 1.5× the output — the one presized buffer and the track maps. The fmt
// writer allocated about eight times its output.
func TestWritePerfettoAllocs(t *testing.T) {
	p := experiment.Quick
	light := fault.Light()
	light.Seed = 7
	p.Fault = light
	tasks, horizon, err := experiment.TraceSetup(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	if err := experiment.StreamTrace(p, experiment.TraceSimUni, false, 1, tasks, horizon, rec.Record); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	out := len(trace.AppendPerfetto(nil, events))
	const runs = 3
	heapAllocBytes()
	before := heapAllocBytes()
	for i := 0; i < runs; i++ {
		if err := trace.WritePerfetto(io.Discard, events); err != nil {
			t.Fatal(err)
		}
	}
	perRun := (heapAllocBytes() - before) / runs
	t.Logf("%d events, %d output bytes, WritePerfetto allocated %d bytes (%.2f×)",
		len(events), out, perRun, float64(perRun)/float64(out))
	if limit := uint64(out) * 3 / 2; perRun > limit {
		t.Fatalf("WritePerfetto allocated %d bytes for %d output bytes, want ≤ %d", perRun, out, limit)
	}
}
