package sim

import (
	"testing"
	"time"
)

// The tests below pin stale-wake rejection: each leaves a wake in the
// queue for a wait that has already ended, then parks the same process
// again before that wake's time. A kernel that let the stale wake through
// would end the later wait early.

// TestWaitTimeoutWonByEventLeavesNoEarlyWake: the timeout of a WaitTimeout
// that its event won must not cut a later Sleep short.
func TestWaitTimeoutWonByEventLeavesNoEarlyWake(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var fired bool
	var woke time.Duration
	e.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(ev, 10*time.Second)
		p.Sleep(20 * time.Second) // runs past the old 10 s deadline
		woke = p.Now()
	})
	e.At(time.Second, ev.Trigger)
	e.Run()
	if !fired || woke != 21*time.Second {
		t.Fatalf("fired=%v, slept until %v; want true and 21s", fired, woke)
	}
}

// TestInterruptedSleepLeavesNoEarlyWake: the timer of an interrupted Sleep
// must not end the next Sleep.
func TestInterruptedSleepLeavesNoEarlyWake(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	victim := e.Spawn("v", func(p *Proc) {
		if OnInterrupt(func() { p.Sleep(10 * time.Second) }) == nil {
			t.Error("first Sleep was not interrupted")
		}
		p.Sleep(20 * time.Second)
		woke = p.Now()
	})
	e.At(time.Second, func() { victim.Interrupt("stop") })
	e.Run()
	if woke != 21*time.Second {
		t.Fatalf("second Sleep ended at %v, want 21s", woke)
	}
}

// TestInterruptedTransferLeavesNoEarlyWake: a transfer that completes in
// the instant its interrupt lands has a completion wake queued behind the
// interrupt; that wake must not end the next Sleep.
func TestInterruptedTransferLeavesNoEarlyWake(t *testing.T) {
	e := NewEngine()
	l := NewSharedLink(e, "disk", 1) // 10 B take exactly 10 s
	var woke time.Duration
	var victim *Proc
	victim = e.Spawn("v", func(p *Proc) {
		if OnInterrupt(func() { l.Transfer(p, 10) }) == nil {
			t.Error("Transfer was not interrupted")
		}
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	// Runs at 10 s before the completion callback, so the interrupt is
	// queued after it, and the completion's wake after the interrupt.
	e.At(10*time.Second, func() { victim.Interrupt("stop") })
	e.Run()
	if woke != 15*time.Second {
		t.Fatalf("Sleep after the interrupted Transfer ended at %v, want 15s", woke)
	}
	if l.Active() != 0 {
		t.Fatalf("%d flows still active", l.Active())
	}
}

// TestInterruptedAcquireLeavesNoEarlyWake: a contended Acquire granted in
// the instant its interrupt lands hands the units back, and its grant's
// wake must not end the next Sleep.
func TestInterruptedAcquireLeavesNoEarlyWake(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var woke time.Duration
	var victim *Proc
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Second)
		r.Release(1) // grants the victim, queued behind its interrupt
	})
	victim = e.Spawn("v", func(p *Proc) {
		if OnInterrupt(func() { r.Acquire(p, 1) }) == nil {
			t.Error("Acquire was not interrupted")
		}
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	e.At(10*time.Second, func() { victim.Interrupt("stop") })
	e.Run()
	if woke != 15*time.Second {
		t.Fatalf("Sleep after the interrupted Acquire ended at %v, want 15s", woke)
	}
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Fatalf("in use %d, queued %d; want the granted unit handed back", r.InUse(), r.Queued())
	}
}

// TestEventWakesWaitersInWaitOrder: the inline first waiter wakes first,
// then the overflow slice in order.
func TestEventWakesWaitersInWaitOrder(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var order []string
	for i, name := range []string{"a", "b", "c"} {
		e.SpawnAfter(time.Duration(i)*time.Second, name, func(p *Proc) {
			p.Wait(ev)
			order = append(order, name)
		})
	}
	e.At(5*time.Second, ev.Trigger)
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order %v, want [a b c]", order)
	}
}

// TestGetTimeoutKeepsItemHandedAtDeadline: an item Put hands over in the
// deadline's instant, ahead of the timeout's wake, is received, not lost.
func TestGetTimeoutKeepsItemHandedAtDeadline(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got int
	var ok bool
	e.Spawn("c", func(p *Proc) { got, ok = q.GetTimeout(p, time.Second) })
	// Scheduled before the consumer's timeout, so it runs first at 1 s;
	// the wake it schedules runs after the timeout's.
	e.At(time.Second, func() { q.Put(7) })
	e.Run()
	if !ok || got != 7 || q.Len() != 0 {
		t.Fatalf("got %d ok=%v with %d buffered; want 7 true and 0", got, ok, q.Len())
	}
}

// allocsPerPark builds an operation with mk, runs it in a process after
// warm-up, and reports its average allocations.
func allocsPerPark(mk func(e *Engine) func(p *Proc)) float64 {
	e := NewEngine()
	defer e.Close()
	op := mk(e)
	var allocs float64
	e.Spawn("op", func(p *Proc) {
		for i := 0; i < 100; i++ { // grow the event heap and rings
			op(p)
		}
		allocs = testing.AllocsPerRun(200, func() { op(p) })
	})
	e.Run()
	return allocs
}

// TestParksAllocateNothing: in steady state, with any Event made by the
// caller, no blocking call of the kernel allocates.
func TestParksAllocateNothing(t *testing.T) {
	cases := map[string]func(e *Engine) func(p *Proc){
		"Sleep": func(e *Engine) func(p *Proc) {
			return func(p *Proc) { p.Sleep(time.Second) }
		},
		"Wait": func(e *Engine) func(p *Proc) {
			evs := make([]*Event, 1000)
			for i := range evs {
				evs[i] = NewEvent(e)
			}
			i := 0
			trigger := func() { evs[i].Trigger() }
			return func(p *Proc) {
				e.At(time.Second, trigger)
				p.Wait(evs[i])
				i++
			}
		},
		"WaitTimeout fired": func(e *Engine) func(p *Proc) {
			evs := make([]*Event, 1000)
			for i := range evs {
				evs[i] = NewEvent(e)
			}
			i := 0
			trigger := func() { evs[i].Trigger() }
			return func(p *Proc) {
				e.At(time.Second, trigger)
				if !p.WaitTimeout(evs[i], 2*time.Second) {
					t.Error("WaitTimeout timed out")
				}
				i++
			}
		},
		"WaitTimeout expired": func(e *Engine) func(p *Proc) {
			evs := make([]*Event, 1000)
			for i := range evs {
				evs[i] = NewEvent(e)
			}
			i := 0
			return func(p *Proc) {
				if p.WaitTimeout(evs[i], time.Second) {
					t.Error("WaitTimeout fired")
				}
				i++
			}
		},
		"Transfer": func(e *Engine) func(p *Proc) {
			l := NewSharedLink(e, "disk", 1e6)
			return func(p *Proc) { l.Transfer(p, 1e6) }
		},
		"contended Acquire": func(e *Engine) func(p *Proc) {
			r := NewResource(e, 1)
			release := func() { r.Release(1) }
			return func(p *Proc) {
				r.Acquire(p, 1)
				e.At(time.Second, release)
				r.Acquire(p, 1) // blocks until release
				r.Release(1)
			}
		},
		"Notifier.AwaitMin": func(e *Engine) func(p *Proc) {
			var n Notifier[int]
			st := 0
			enter := func() { st++; n.Entered(st) }
			return func(p *Proc) {
				e.At(time.Second, enter)
				n.AwaitMin(p, st, st+1)
			}
		},
		"Queue.Get": func(e *Engine) func(p *Proc) {
			q := NewQueue[int64](e)
			put := func() { q.Put(1) }
			return func(p *Proc) {
				e.At(time.Second, put)
				q.Get(p)
			}
		},
	}
	for name, mk := range cases {
		if allocs := allocsPerPark(mk); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, allocs)
		}
	}
}
