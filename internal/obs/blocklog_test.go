package obs

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// fullBlocks3 is the entry count of the first three blocks.
const fullBlocks3 = firstBlock + 2*firstBlock + 4*firstBlock

// TestBlockLogSizes: blocks double from firstBlock and stop at
// maxBlock, and none is copied or regrown once opened.
func TestBlockLogSizes(t *testing.T) {
	var l blockLog[int]
	var firsts []*int
	for i := 0; i < 3*maxBlock; i++ {
		l.add(i)
		if len(l.blocks[len(l.blocks)-1]) == 1 {
			firsts = append(firsts, &l.blocks[len(l.blocks)-1][0])
		}
	}
	want := firstBlock
	for k, b := range l.blocks {
		if cap(b) != want || (k < len(l.blocks)-1 && len(b) != want) {
			t.Fatalf("block %d: len %d cap %d, want %d", k, len(b), cap(b), want)
		}
		if &b[0] != firsts[k] {
			t.Fatalf("block %d moved after it was opened", k)
		}
		want = min(2*want, maxBlock)
	}
	if l.n != 3*maxBlock || l.last() != 3*maxBlock-1 {
		t.Fatalf("n = %d, last = %d, want %d entries", l.n, l.last(), 3*maxBlock)
	}
}

// TestRecorderAcrossBlocks: three full blocks plus seven events keep a
// dense Seq and record order through every block boundary; Events()
// returns one exact-size copy, and Count tallies each kind.
func TestRecorderAcrossBlocks(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	const n = fullBlocks3 + 7
	kinds := []Kind{KindBind, KindUnitState, KindCache}
	eng.Spawn("rec", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.Record(Event{Kind: kinds[i%len(kinds)], Cores: i})
			p.Sleep(time.Millisecond)
		}
	})
	eng.Run()
	if got := len(r.events.blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	evs := r.Events()
	if len(evs) != n || cap(evs) != n || r.Len() != n {
		t.Fatalf("Events len %d cap %d, Len %d, want %d", len(evs), cap(evs), r.Len(), n)
	}
	for i, ev := range evs {
		if ev.Seq != i || ev.Cores != i || ev.At != time.Duration(i)*time.Millisecond {
			t.Fatalf("event %d = seq %d cores %d at %v", i, ev.Seq, ev.Cores, ev.At)
		}
	}
	for k, kind := range kinds {
		want := n / len(kinds)
		if k < n%len(kinds) {
			want++
		}
		if got := r.Count(kind); got != want {
			t.Errorf("Count(%s) = %d, want %d", kind, got, want)
		}
	}
	if r.Count(KindTrace) != 0 {
		t.Errorf("Count(trace) = %d, want 0", r.Count(KindTrace))
	}
	evs[0].Unit, evs[n-1].Unit = "mutated", "mutated"
	if again := r.Events(); again[0].Unit != "" || again[n-1].Unit != "" {
		t.Fatal("Events() aliases recorder storage")
	}
}

// TestSeriesAcrossBlocks: the gauge series keeps order across block
// boundaries; Samples() is an exact-size copy and Last the newest.
func TestSeriesAcrossBlocks(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Last().At != 0 || s.Samples() != nil {
		t.Fatal("empty series: Last or Samples not zero")
	}
	const n = fullBlocks3 + 7
	for i := 0; i < n; i++ {
		s.Add(GaugeSample{QueueDepth: i})
	}
	got := s.Samples()
	if len(got) != n || cap(got) != n || s.Len() != n {
		t.Fatalf("Samples len %d cap %d, Len %d, want %d", len(got), cap(got), s.Len(), n)
	}
	for i, g := range got {
		if g.QueueDepth != i {
			t.Fatalf("sample %d has QueueDepth %d", i, g.QueueDepth)
		}
	}
	if s.Last().QueueDepth != n-1 {
		t.Fatalf("Last = %d, want %d", s.Last().QueueDepth, n-1)
	}
	got[0].QueueDepth = -1
	if s.Samples()[0].QueueDepth != 0 {
		t.Fatal("Samples() aliases series storage")
	}
}

// TestRecordAllocatesOnlyForNewBlocks: with no hooks, Record allocates
// nothing while the current block has room, and a record that opens a
// block allocates only for it.
func TestRecordAllocatesOnlyForNewBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRecorder(sim.NewEngine())
	ev := Event{Kind: KindBind, Unit: "u1", Pilot: "p1"}
	r.Record(ev) // opens the first block and the kind's count
	if allocs := testing.AllocsPerRun(firstBlock-2, func() { r.Record(ev) }); allocs != 0 {
		t.Fatalf("Record within a block: %v allocs, want 0", allocs)
	}
	if r.Len() != firstBlock {
		t.Fatalf("Len = %d, want a full first block of %d", r.Len(), firstBlock)
	}
	var ms runtime.MemStats
	for i := 0; i < fullBlocks3; i++ {
		blocks := len(r.events.blocks)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		r.Record(ev)
		runtime.ReadMemStats(&ms)
		opened := len(r.events.blocks) > blocks
		if n := ms.Mallocs - before; (n > 0) != opened || n > 2 {
			t.Fatalf("record %d: %d allocs, opened a block: %v", r.Len(), n, opened)
		}
	}
}
