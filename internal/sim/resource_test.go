package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceBasics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 4)
	if r.Capacity() != 4 || r.Available() != 4 || r.InUse() != 0 {
		t.Fatal("bad initial state")
	}
	var queued int
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 3)
		if r.Available() != 1 || r.InUse() != 3 {
			t.Errorf("after Acquire(3): available %d, in use %d", r.Available(), r.InUse())
		}
		p.Sleep(time.Second)
		queued = r.Queued()
		r.Release(3)
	})
	e.Spawn("blocked", func(p *Proc) {
		r.Acquire(p, 2) // only 1 available: waits for the holder
		r.Release(2)
	})
	e.Run()
	if queued != 1 {
		t.Fatalf("queued = %d while the holder held 3 of 4, want 1", queued)
	}
	if r.InUse() != 0 || r.Available() != 4 {
		t.Fatalf("in use = %d, available = %d after release", r.InUse(), r.Available())
	}
}

func TestResourceBlocksUntilRelease(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var acquired time.Duration = -1
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(5 * time.Second)
		r.Release(2)
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Second) // ensure holder goes first
		r.Acquire(p, 1)
		acquired = p.Now()
		r.Release(1)
	})
	e.Run()
	if acquired != 5*time.Second {
		t.Fatalf("acquired at %v, want 5s", acquired)
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 4)
	var order []string
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(time.Second)
		r.Release(4)
	})
	// big asks for 3 first; small asks for 1 later. When the holder
	// releases, big must be served before small even though small fits
	// earlier.
	e.Spawn("big", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		r.Acquire(p, 3)
		order = append(order, "big")
		r.Release(3)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(200 * time.Millisecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v, want [big small]", order)
	}
}

func TestResourceMisusePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	// Acquire validates the amount before it touches the process.
	assertPanics(t, "zero acquire", func() { r.Acquire(nil, 0) })
	assertPanics(t, "over-capacity", func() { r.Acquire(nil, 3) })
	assertPanics(t, "release unheld", func() { r.Release(1) })
	assertPanics(t, "zero capacity", func() { NewResource(e, 0) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// Property: for arbitrary workloads of acquire/hold/release processes, the
// resource never exceeds capacity, never goes negative, and everything is
// released at the end.
func TestResourceAccountingProperty(t *testing.T) {
	prop := func(seed int64, nWorkers uint8) bool {
		rng := NewRNG(seed)
		e := NewEngine()
		const capacity = 8
		r := NewResource(e, capacity)
		violated := false
		n := int(nWorkers%20) + 1
		for i := 0; i < n; i++ {
			amt := rng.Intn(capacity) + 1
			start := time.Duration(rng.Intn(1000)) * time.Millisecond
			hold := time.Duration(rng.Intn(1000)) * time.Millisecond
			e.SpawnAfter(start, "w", func(p *Proc) {
				r.Acquire(p, amt)
				if r.InUse() > capacity || r.InUse() < 0 {
					violated = true
				}
				p.Sleep(hold)
				r.Release(amt)
			})
		}
		e.Run()
		return !violated && r.InUse() == 0 && r.Queued() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
