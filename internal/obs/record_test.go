package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestRecordLayout pins the stored record: at most 56 bytes, and no
// field the garbage collector would have to trace.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(eventRecord{}); n > 56 {
		t.Fatalf("eventRecord is %d B, want at most 56", n)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the record must hold no pointers", path, typ.Kind())
		}
	}
	walk("eventRecord", reflect.TypeOf(eventRecord{}))
}

// roundTripEvents covers every shape a record stores: IDs that share a
// trailing number, an ID without one, names that differ per event,
// every int field, bytes, a critical-path length and free text — and
// the shapes kept whole in the side table.
func roundTripEvents() []Event {
	return []Event{
		{Kind: KindUnitState, Unit: "unit.000001", Name: "job", State: "UMGR_SCHEDULING", Cores: 4},
		{Kind: KindBind, Unit: "unit.000001", Name: "job", Pilot: "pilot.0000", Policy: "backfill",
			Cores: 4, Running: 12, Nodes: 32},
		{Kind: KindGraphAdmit, Unit: "unit.000001", Name: "node-a", Critical: 12.5},
		{Kind: KindUnitState, Unit: "other.000001", State: "DONE"},
		{Kind: KindUnitState, Unit: "u1", Pilot: "pilot.0001", State: "FAILED", Detail: "boom"},
		{Kind: KindDataState, Data: "du.000003", Name: "input.dat", State: "REPLICATED", Bytes: 1 << 40},
		{Kind: KindReplica, Data: "du.000003", Name: "input.dat", Pilot: "mem-a", Op: "place", Bytes: 7},
		{Kind: KindAutoscale, Pilot: "pilot.0000", Policy: "queue-depth", Delta: -3, Applied: -2,
			Nodes: 8, Waiting: 40, Running: 16, Detail: "resize: busy"},
		{Kind: KindCache, Unit: "unit.000002", Op: "complete", Waiting: 3, Bytes: 64, Detail: "ab12cd"},
		{Kind: KindTrace, Detail: "queue: job 7 started"},
		{Kind: KindUnitState, Unit: "unit.000900000", State: "NEW"},
		{Kind: KindHold, Name: "no entity", Op: "input"},
		// Kept whole (with the autoscale verdict above): both entities,
		// both bytes and critical, a wide int.
		{Kind: KindCache, Unit: "unit.000004", Data: "du.000004", Op: "hit"},
		{Kind: KindGraphAdmit, Unit: "unit.000005", Critical: 1.5, Bytes: 9},
		{Kind: KindStoreFail, Pilot: "mem-b", Nodes: math.MaxInt32 + 1, Detail: "mem-b store"},
		{Kind: Kind(99), Name: "unknown kind"},
	}
}

// TestRecordRoundTrip: Events decodes exactly the stamped events the
// hooks received, the side-table shapes included.
func TestRecordRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	var seen []Event
	r.OnRecord(func(ev Event) { seen = append(seen, ev) })
	evs := roundTripEvents()
	eng.Spawn("rec", func(p *sim.Proc) {
		for _, ev := range evs {
			r.Record(ev)
			p.Sleep(time.Millisecond)
		}
	})
	eng.Run()
	got := r.Events()
	if !reflect.DeepEqual(got, seen) {
		for i := range got {
			if !reflect.DeepEqual(got[i], seen[i]) {
				t.Errorf("event %d decodes as %+v, hooks saw %+v", i, got[i], seen[i])
			}
		}
		t.FailNow()
	}
	for i, ev := range got {
		want := evs[i]
		want.Seq, want.At = i, time.Duration(i)*time.Millisecond
		if !reflect.DeepEqual(ev, want) {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	if len(r.raws) != 4 {
		t.Errorf("%d events kept whole, want 4", len(r.raws))
	}
}

// TestSeriesRoundTripAndJSONL: Samples gives back every added sample
// exactly, the compact ones and those kept whole alike, and WriteJSONL
// writes the bytes encoding/json writes for each sample with its cell
// and time set.
func TestSeriesRoundTripAndJSONL(t *testing.T) {
	in := []GaugeSample{
		{At: 1500 * time.Millisecond, QueueDepth: 4, WaitingCores: 8, HeldUnits: 1, HeldCores: 2,
			RunningUnits: 3, RunningCores: 6, TotalCores: 16, Utilization: 0.375},
		{At: 2 * time.Second, TotalCores: 16, CacheEntries: 2, CacheBytes: 1 << 40},
		{At: 3 * time.Second, StoreFree: map[string]int64{"mem-b": 7, "mem-a": -1}},
		{At: 4 * time.Second, QueueDepth: math.MaxInt32 + 1, Utilization: 1e-7},
		{At: 5 * time.Second, Cell: "set by the caller", T: 9},
		{At: 6*time.Second + 1, Utilization: 1},
	}
	var s Series
	for _, g := range in {
		s.Add(g)
	}
	if got := s.Samples(); !reflect.DeepEqual(got, in) {
		t.Fatalf("Samples() = %+v, want %+v", got, in)
	}
	if got := s.Last(); !reflect.DeepEqual(got, in[len(in)-1]) {
		t.Fatalf("Last() = %+v", got)
	}
	for _, cell := range []string{"", "cell \"a\""} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, g := range in {
			g.Cell, g.T = cell, g.At.Seconds()
			if err := enc.Encode(g); err != nil {
				t.Fatal(err)
			}
		}
		var got bytes.Buffer
		if err := s.WriteJSONL(&got, cell); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("cell %q: WriteJSONL wrote\n%s\nencoding/json writes\n%s", cell, got.String(), want.String())
		}
	}
}

// lifecycle is one unit's recorded stream, as the Unit-Manager and
// agent record it.
func lifecycle(unit string) []Event {
	states := []string{"UMGR_SCHEDULING", "UMGR_STAGING_INPUT", "AGENT_STAGING_INPUT_PENDING",
		"AGENT_SCHEDULING", "AGENT_EXECUTING", "AGENT_STAGING_OUTPUT", "DONE"}
	evs := make([]Event, 0, len(states)+1)
	for i, st := range states {
		ev := Event{Kind: KindUnitState, Unit: unit, State: st, Cores: 1}
		if i > 0 {
			ev.Pilot = "pilot.0001"
		}
		evs = append(evs, ev)
		if i == 0 {
			evs = append(evs, Event{Kind: KindBind, Unit: unit, Pilot: "pilot.0001",
				Policy: "backfill", Cores: 1, Running: 3, Nodes: 16})
		}
	}
	return evs
}

// fillToBlock records events until the next one opens a maxBlock-sized
// block, then records it: the block has maxBlock-1 free entries after.
func fillToBlock(r *Recorder, ev Event) {
	for {
		k := len(r.events.blocks)
		if k > 0 && cap(r.events.blocks[k-1]) == maxBlock && len(r.events.blocks[k-1]) == 1 {
			return
		}
		r.Record(ev)
	}
}

// TestRecordAndBridgeAllocateNothing: in steady state — strings already
// interned, a block with room, tracks to reuse — recording a unit's
// lifecycle through the metrics bridge allocates nothing, and neither
// does the bridge alone.
func TestRecordAndBridgeAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRecorder(sim.NewEngine())
	b := NewBridge(metrics.NewRegistry())
	r.OnRecord(b.Apply)
	units := make([][]Event, 8)
	for i := range units {
		units[i] = lifecycle("unit." + strconv.Itoa(100000+i))
	}
	for _, evs := range units { // warm: intern, resolve series, make tracks
		for _, ev := range evs {
			r.Record(ev)
		}
	}
	fillToBlock(r, units[0][0])
	i := 0
	allocs := testing.AllocsPerRun((maxBlock-1)/len(units[0])-1, func() {
		for _, ev := range units[i%len(units)] {
			r.Record(ev)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("recording a lifecycle through the bridge: %v allocs, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		for _, ev := range units[i%len(units)] {
			b.Apply(ev)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Bridge.Apply on a lifecycle: %v allocs, want 0", allocs)
	}
}

// BenchmarkRecord is the cost of recording one event, with no hooks,
// over a stream of unit lifecycles on fresh unit IDs.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(sim.NewEngine())
	evs := benchStream(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range evs {
		r.Record(evs[i])
	}
}

// BenchmarkBridgeApply is the cost of folding one event into the
// metrics bridge over the same stream.
func BenchmarkBridgeApply(b *testing.B) {
	br := NewBridge(metrics.NewRegistry())
	evs := benchStream(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range evs {
		br.Apply(evs[i])
	}
}

// BenchmarkChromeExport is the cost per event of the Chrome trace
// export of a recorded stream, Events() decoding included.
func BenchmarkChromeExport(b *testing.B) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	evs := benchStream(b.N)
	eng.Spawn("rec", func(p *sim.Proc) {
		for i := range evs {
			r.Record(evs[i])
			p.Sleep(time.Millisecond)
		}
	})
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	if err := WriteChromeTrace(io.Discard, r.Events()); err != nil {
		b.Fatal(err)
	}
}

// benchStream returns n events: whole unit lifecycles on unit IDs
// numbered as the Unit-Manager numbers them.
func benchStream(n int) []Event {
	evs := make([]Event, 0, n+8)
	for u := 1; len(evs) < n; u++ {
		evs = append(evs, lifecycle(seqName("unit.", u))...)
	}
	return evs[:n]
}

// seqName renders prefix plus n zero-padded to six digits.
func seqName(prefix string, n int) string {
	s := strconv.Itoa(n)
	return prefix + string(bytes.Repeat([]byte{'0'}, max(6-len(s), 0))) + s
}
