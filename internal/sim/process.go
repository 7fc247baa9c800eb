package sim

import (
	"fmt"
	"time"
)

// errStopped is the sentinel used to unwind a process goroutine when the
// engine shuts down. It must never escape the kernel.
type stoppedError struct{ p *Proc }

func (e stoppedError) Error() string { return "sim: process stopped: " + e.p.Name() }

type wakeKind int

const (
	wakeFired       wakeKind = iota // the awaited condition happened
	wakeTimeout                     // a WaitTimeout deadline expired
	wakeKilled                      // the engine is shutting down
	wakeInterrupted                 // another process called Interrupt
)

// Interrupted is the panic value delivered to a process whose blocking
// operation was interrupted with Proc.Interrupt. Callers that want to
// handle interruption recover it (see OnInterrupt); unhandled, it unwinds
// the process like any panic and is reported as a kernel bug unless
// recovered.
type Interrupted struct {
	// Reason is the value passed to Interrupt.
	Reason any
}

func (i *Interrupted) Error() string { return fmt.Sprintf("sim: interrupted: %v", i.Reason) }

// OnInterrupt runs fn and, if it is unwound by an Interrupt, returns the
// Interrupted value instead of propagating the panic. Other panics (and
// kernel shutdown) propagate unchanged. Typical use:
//
//	if intr := sim.OnInterrupt(func() { longRunningWork(p) }); intr != nil {
//	    cleanup()
//	}
func OnInterrupt(fn func()) (intr *Interrupted) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if i, ok := r.(*Interrupted); ok {
			intr = i
			return
		}
		panic(r)
	}()
	fn()
	return nil
}

// Proc is the handle a process uses to interact with virtual time. A Proc
// is only valid inside the function passed to Engine.Spawn and must not be
// shared with other processes.
type Proc struct {
	eng  *Engine
	name string
	// namer builds the name on demand for processes spawned with
	// SpawnNamed; name is empty then.
	namer fmt.Stringer
	id    int
	fn    func(p *Proc) // the body, until the process starts
	// w is the goroutine running the process, nil before it starts and
	// after it finishes.
	w *worker
	// start is the waiter the spawn event wakes.
	start waiter
	// prev and next link the engine's live processes in spawn order.
	prev, next *Proc
	// set is the ProcSet the process belongs to, if any; sprev and snext
	// link its members.
	set          *ProcSet
	sprev, snext *Proc

	done bool

	// daemon marks service-loop processes that must not keep the
	// simulation alive (see Engine.SpawnDaemon).
	daemon bool

	// cur is the waiter the process is currently parked on, if any.
	cur *waiter
	// pendingInt holds the reason of an interrupt that arrived while the
	// process was running (or after its current wait had already been
	// won); it is delivered at the next blocking point.
	pendingInt    any
	hasPendingInt bool
}

// worker is a pooled goroutine that runs processes one after another, or
// the goroutine that called Run. Whoever holds control runs the event
// loop; the others block on their ch until control is handed to them.
type worker struct {
	ch      chan struct{}
	p       *Proc   // the process it runs; nil while idle
	next    *worker // next idle worker on the engine's free list
	started bool    // its goroutine exists
}

// Interrupt requests that p's current (or, if it is running, next)
// blocking operation unwind with an *Interrupted panic carrying reason.
// It may be called from any process or kernel callback. Interrupting a
// finished process is a no-op. Delivery is asynchronous: it happens via
// the event queue at the current virtual time.
func (p *Proc) Interrupt(reason any) {
	if p.done {
		return
	}
	p.eng.At(0, func() {
		if p.done {
			return
		}
		if cw := p.cur; cw != nil && !cw.woken {
			// Blocked right now: unwind whatever wait it is in.
			cw.intReason = reason
			cw.wake(wakeInterrupted)
			return
		}
		// Running, or its wake at this timestamp already won: deliver at
		// the next blocking point.
		p.pendingInt = reason
		p.hasPendingInt = true
	})
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the name given to Spawn, for traces and diagnostics.
func (p *Proc) Name() string {
	if p.namer != nil {
		return p.namer.String()
	}
	return p.name
}

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Spawn starts fn as a new process at the current virtual time. The
// process begins executing when the engine reaches the spawn event, not
// synchronously. Spawn may be called before Run or from any process or
// kernel callback. The returned Proc must only be used by other processes
// to call Interrupt or to inspect identity; all blocking methods remain
// exclusive to the spawned function.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnNamed is Spawn for processes spawned in bulk: name.String() is
// called only when the name is read (traces, panic text), so a busy
// spawner does not build a string per process.
func (e *Engine) SpawnNamed(name fmt.Stringer, fn func(p *Proc)) *Proc {
	p := e.spawn(0, "", false, fn)
	p.namer = name
	return p
}

// SpawnAfter starts fn as a new process after delay d of virtual time.
func (e *Engine) SpawnAfter(d time.Duration, name string, fn func(p *Proc)) *Proc {
	return e.spawn(d, name, false, fn)
}

// SpawnDaemon starts fn as a daemon process: a service loop (scheduler
// cycle, heartbeat monitor, node manager) that runs as long as the
// simulation has other work but does not keep it alive by itself — the
// analogue of a detached system daemon.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(0, name, true, fn)
}

func (e *Engine) spawn(d time.Duration, name string, daemon bool, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed engine")
	}
	e.nspawned++
	p := &Proc{eng: e, name: name, id: e.nspawned, daemon: daemon, fn: fn}
	p.start.p = p
	if e.tail == nil {
		e.head = p
	} else {
		e.tail.next, p.prev = p, e.tail
	}
	e.tail = p
	e.live++
	if !daemon {
		e.liveNormal++
	}
	e.schedule(e.now+d, daemon, &p.start, wakeFired, nil)
	return p
}

// run executes the process body on the calling goroutine and settles its
// end. It returns with the goroutine holding control.
func (p *Proc) run() {
	e := p.eng
	returned := false
	defer func() {
		if e.inCallback {
			// An At callback panicked while this goroutine ran the event
			// loop: the panic is not the process's, so let it crash the
			// program unchanged.
			return
		}
		r := recover()
		p.finish()
		switch r.(type) {
		case nil:
			if !returned {
				// runtime.Goexit (a test's FailNow): this goroutine
				// ends, so pass control on without it.
				e.handoff(e.pick(e.caller))
			}
		case stoppedError, *Interrupted:
			// Killed by Close, or an unhandled interrupt: the process
			// ends cleanly, like a signal-killed task; defers have run.
		default:
			// A real panic in simulation code: surface it with the
			// process identity attached. This crashes the program,
			// which is the desired behaviour for a kernel-level bug.
			panic(fmt.Sprintf("sim: process %q panicked at %s: %v", p.Name(), e.now, r))
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	returned = true
}

// finish marks p done and unlinks it from the live list.
func (p *Proc) finish() {
	e := p.eng
	p.done = true
	p.w = nil
	if !p.daemon {
		e.liveNormal--
	}
	if p.prev == nil {
		e.head = p.next
	} else {
		p.prev.next = p.next
	}
	if p.next == nil {
		e.tail = p.prev
	} else {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	e.live--
	if p.set != nil {
		p.set.remove(p)
	}
}

// ProcSet tracks a group of live processes in the order they joined
// (for example an agent's unit executors). A member leaves the set when
// it finishes, so both joining and leaving are O(1) and a set never
// holds finished processes.
type ProcSet struct{ head, tail *Proc }

// Add puts p, which must be unfinished and in no set, at the end of s.
func (s *ProcSet) Add(p *Proc) {
	if p.done || p.set != nil {
		panic(fmt.Sprintf("sim: ProcSet.Add of process %q: finished or already in a set", p.Name()))
	}
	p.set = s
	if s.tail == nil {
		s.head = p
	} else {
		s.tail.snext, p.sprev = p, s.tail
	}
	s.tail = p
}

func (s *ProcSet) remove(p *Proc) {
	if p.sprev == nil {
		s.head = p.snext
	} else {
		p.sprev.snext = p.snext
	}
	if p.snext == nil {
		s.tail = p.sprev
	} else {
		p.snext.sprev = p.sprev
	}
	p.set, p.sprev, p.snext = nil, nil, nil
}

// Interrupt interrupts every member, in the order they joined.
func (s *ProcSet) Interrupt(reason any) {
	for p := s.head; p != nil; p = p.snext {
		p.Interrupt(reason)
	}
}

// parkOn blocks the calling process on waiter w until something wakes it,
// returning the wake kind. Must run in process context.
func (p *Proc) parkOn(w *waiter) wakeKind {
	if p.hasPendingInt {
		reason := p.pendingInt
		p.hasPendingInt = false
		p.pendingInt = nil
		w.woken = true // nobody should wake this waiter later
		panic(&Interrupted{Reason: reason})
	}
	e := p.eng
	if e.inCallback {
		panic("sim: blocking call from an event callback")
	}
	p.cur = w
	// Blocking in a defer while Close kills the process hands control
	// back to Close, which kills it again.
	e.dispatch(p.w)
	k := e.wokenKind
	p.cur = nil
	switch k {
	case wakeKilled:
		panic(stoppedError{p})
	case wakeInterrupted:
		panic(&Interrupted{Reason: w.intReason})
	}
	return k
}

// waiter represents one parked wait of a process. A waiter may be the
// target of several potential wake-ups (event trigger, timeout,
// interrupt); only the first takes effect.
type waiter struct {
	p         *Proc
	woken     bool
	intReason any
}

// wake marks the waiting process to run next if this waiter has not been
// woken yet. Must run in kernel context (an event of the queue), as the
// last action of the event; one event wakes at most one process.
func (w *waiter) wake(k wakeKind) {
	if w.woken || w.p.done {
		return
	}
	w.woken = true
	e := w.p.eng
	if e.woken != nil {
		panic("sim: one event woke two processes")
	}
	e.woken, e.wokenKind = w.p, k
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, so other events at the same
// timestamp that were scheduled earlier run first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w := &waiter{p: p}
	p.eng.schedule(p.eng.now+d, p.daemon, w, wakeFired, nil)
	p.parkOn(w)
}

// Yield gives up control until all events scheduled at the current
// timestamp before this call have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Wait blocks until ev is triggered. If ev is already triggered, Wait
// still yields once so ordering stays consistent.
func (p *Proc) Wait(ev *Event) {
	if ev.triggered {
		p.Yield()
		return
	}
	w := &waiter{p: p}
	ev.waiters = append(ev.waiters, w)
	p.parkOn(w)
}

// WaitTimeout blocks until ev is triggered or d elapses. It reports
// whether the event fired (true) as opposed to the timeout expiring.
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) bool {
	if ev.triggered {
		p.Yield()
		return true
	}
	w := &waiter{p: p}
	ev.waiters = append(ev.waiters, w)
	p.eng.schedule(p.eng.now+d, p.daemon, w, wakeTimeout, nil)
	return p.parkOn(w) == wakeFired
}
