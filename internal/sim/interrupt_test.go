package sim

import (
	"testing"
	"time"
)

func TestInterruptSleepingProcess(t *testing.T) {
	e := NewEngine()
	var got *Interrupted
	var at time.Duration
	victim := e.Spawn("victim", func(p *Proc) {
		got = OnInterrupt(func() { p.Sleep(time.Hour) })
		at = p.Now()
	})
	e.At(5*time.Second, func() { victim.Interrupt("walltime") })
	e.Run()
	if got == nil || got.Reason != "walltime" {
		t.Fatalf("interrupt = %+v, want reason walltime", got)
	}
	if at != 5*time.Second {
		t.Fatalf("unwound at %v, want 5s", at)
	}
}

func TestInterruptRunsDefers(t *testing.T) {
	e := NewEngine()
	cleaned := false
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	e.At(time.Second, func() { victim.Interrupt(nil) })
	e.Run()
	if !cleaned {
		t.Fatal("defer did not run on unhandled interrupt")
	}
	if e.Processes() != 0 {
		t.Fatalf("%d live processes, want 0", e.Processes())
	}
}

func TestInterruptWhileRunningDeliversAtNextBlock(t *testing.T) {
	e := NewEngine()
	var victim *Proc
	stage := 0
	victim = e.Spawn("victim", func(p *Proc) {
		stage = 1
		// Interrupt ourselves while running: must not fire until the
		// next blocking call.
		p.Interrupt("later")
		stage = 2
		if intr := OnInterrupt(func() { p.Sleep(time.Second) }); intr == nil {
			t.Error("interrupt not delivered at next block")
		}
		stage = 3
	})
	_ = victim
	e.Run()
	if stage != 3 {
		t.Fatalf("stage = %d, want 3", stage)
	}
}

func TestInterruptFinishedProcessIsNoop(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("quick", func(p *Proc) {})
	e.Run()
	p.Interrupt("too late")
	e.Run() // must not panic or wake anything
}

// TestInterruptBeforeStartDeliversAtFirstBlock: an interrupt that lands
// before the process starts is delivered at its first blocking call, and
// that call's timer, left in the queue, wakes nothing once the process has
// finished.
func TestInterruptBeforeStartDeliversAtFirstBlock(t *testing.T) {
	e := NewEngine()
	var intr *Interrupted
	victim := e.SpawnAfter(5*time.Second, "victim", func(p *Proc) {
		intr = OnInterrupt(func() { p.Sleep(10 * time.Second) })
	})
	victim.Interrupt("early")
	e.Run()
	if intr == nil || intr.Reason != "early" {
		t.Fatalf("interrupt = %+v, want reason early", intr)
	}
	if e.Now() != 15*time.Second || e.Processes() != 0 {
		t.Fatalf("run ended at %v with %d live processes, want 15s and 0", e.Now(), e.Processes())
	}
}

func TestInterruptLosesToEarlierWake(t *testing.T) {
	// The event fires at the same timestamp but is scheduled before the
	// interrupt: the process must complete the wait normally and see the
	// interrupt at its next block.
	e := NewEngine()
	ev := NewEvent(e)
	var victim *Proc
	sawWait := false
	var intr *Interrupted
	victim = e.Spawn("victim", func(p *Proc) {
		p.Wait(ev)
		sawWait = true
		intr = OnInterrupt(func() { p.Sleep(time.Minute) })
	})
	e.At(time.Second, func() {
		ev.Trigger()
		victim.Interrupt("race")
	})
	e.Run()
	if !sawWait {
		t.Fatal("wait did not complete normally")
	}
	if intr == nil || intr.Reason != "race" {
		t.Fatalf("pending interrupt not delivered: %+v", intr)
	}
}

func TestInterruptedResourceAcquireWithdraws(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var waiter *Proc
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Second)
		r.Release(1)
	})
	waiter = e.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Second)
		r.Acquire(p, 1) // blocks; interrupted at t=2s
		t.Error("acquire should not succeed")
	})
	acquired := false
	e.Spawn("third", func(p *Proc) {
		p.Sleep(3 * time.Second)
		r.Acquire(p, 1) // must be served once holder releases
		acquired = true
		r.Release(1)
	})
	e.At(2*time.Second, func() { waiter.Interrupt("cancel") })
	e.Run()
	if !acquired {
		t.Fatal("third process starved: interrupted waiter not withdrawn")
	}
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Fatalf("resource leaked: inUse=%d queued=%d", r.InUse(), r.Queued())
	}
}

func TestInterruptedQueueGetPreservesItems(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		q.Get(p)
		t.Error("get should have been interrupted")
	})
	e.At(time.Second, func() { victim.Interrupt(nil) })
	e.At(2*time.Second, func() { q.Put(42) })
	var got int
	e.Spawn("other", func(p *Proc) {
		p.Sleep(3 * time.Second)
		got = q.Get(p)
	})
	e.Run()
	if got != 42 {
		t.Fatalf("item lost to interrupted consumer: got %d", got)
	}
}

// TestInterruptedQueueGetPutsHandedItemBack: an item handed to a consumer
// whose interrupt lands before its wake goes back to the head of the
// queue, ahead of items put after it.
func TestInterruptedQueueGetPutsHandedItemBack(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		q.Get(p)
		t.Error("get should have been interrupted")
	})
	e.At(time.Second, func() {
		victim.Interrupt(nil) // queued ahead of the wake Put schedules
		q.Put(42)             // handed to the victim
		q.Put(43)             // buffered
	})
	var got []int
	e.Spawn("other", func(p *Proc) {
		p.Sleep(2 * time.Second)
		got = append(got, q.Get(p), q.Get(p))
	})
	e.Run()
	if len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("got %v, want [42 43]: the handed item put back at the head", got)
	}
}

func TestInterruptedTransferFreesBandwidth(t *testing.T) {
	e := NewEngine()
	l := NewSharedLink(e, "disk", 100)
	var big *Proc
	big = e.Spawn("big", func(p *Proc) {
		l.Transfer(p, 1e6) // would take ~3h alone
		t.Error("big transfer should have been interrupted")
	})
	var done time.Duration
	e.Spawn("small", func(p *Proc) {
		p.Sleep(time.Second)
		l.Transfer(p, 100)
		done = p.Now()
	})
	e.At(2*time.Second, func() { big.Interrupt("abort") })
	e.Run()
	// small: shares 1s..2s at 50 B/s (50 B), then alone at 100 B/s for
	// the remaining 50 B → finishes at 2.5s.
	if !approxDur(done, 2500*time.Millisecond) {
		t.Fatalf("small done at %v, want ~2.5s (bandwidth not freed?)", done)
	}
	if l.Active() != 0 {
		t.Fatalf("%d active flows, want 0", l.Active())
	}
}

func TestOnInterruptPassesThroughOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("real panic swallowed by OnInterrupt")
		}
	}()
	OnInterrupt(func() { panic("boom") })
}
