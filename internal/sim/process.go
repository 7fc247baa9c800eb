//go:build go1.23

package sim

import (
	"fmt"
	"time"
)

// errStopped is the sentinel used to unwind a process coroutine when the
// engine shuts down. It must never escape the kernel.
type stoppedError struct{ p *Proc }

func (e stoppedError) Error() string { return "sim: process stopped: " + e.p.Name() }

type wakeKind uint8

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
	// w is the coroutine running the process, nil before it starts and
	// after it finishes.
	w *worker
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

	// gen and armed are the process's wait slot. Each wait takes the next
	// gen; armed is set from then until a wake of that gen takes effect.
	// A new process is armed at gen 0, for its spawn event's wake. A wake
	// stamped with an older gen, or arriving once the slot is disarmed,
	// is stale and does nothing. See wait.
	gen   uint64
	armed bool

	// intReason is the reason of the interrupt being delivered. With
	// intPending set, the interrupt arrived while the process was running
	// (or after its current wait had already been won), and is delivered
	// at the next blocking point.
	intReason  any
	intPending bool
}

// worker is a pooled iter.Pull coroutine that runs processes one after
// another. Only Run's caller (and Close) resume workers. The worker that
// holds control runs the event loop, and yields the worker to resume
// next, or nil to end the run.
type worker struct {
	resume func() (*worker, bool)
	stop   func()
	yield  func(*worker) bool
	p      *Proc   // the process it runs; nil while idle
	next   *worker // next idle worker on the engine's free list
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
		p.intReason = reason
		if p.armed && p.w != nil {
			// Blocked right now: unwind whatever wait it is in.
			wait{p, p.gen}.wake(wakeInterrupted)
			return
		}
		// Not started, running, or its wake at this timestamp already
		// won: deliver at the next blocking point.
		p.intPending = true
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
//
// fn may end through runtime.Goexit (a test's FailNow): the process ends
// as if fn had returned, and the run goes on. Its coroutine then stays
// suspended for good, one goroutine per such exit, because finishing it
// would propagate the Goexit into the caller of Run or Close.
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
	p := &Proc{eng: e, name: name, id: e.nspawned, daemon: daemon, fn: fn, armed: true}
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
	e.schedule(e.now+d, daemon, wait{p, 0}, wakeFired, nil)
	return p
}

// run executes the process body on its worker's coroutine and settles
// its end. It returns with the coroutine holding control.
func (p *Proc) run() {
	e, w := p.eng, p.w
	returned := false
	defer func() {
		if e.inCallback {
			// An At callback panicked while this coroutine ran the event
			// loop: the panic is not the process's, so let it reach Run's
			// caller unchanged.
			return
		}
		r := recover()
		p.finish()
		switch r.(type) {
		case nil:
			if !returned {
				// runtime.Goexit (a test's FailNow): pass control on
				// as Run's caller would, so the next process never
				// starts on this coroutine, and never resume it.
				w.yield(e.pick(nil))
			}
		case stoppedError, *Interrupted:
			// Killed by Close, or an unhandled interrupt: the process
			// ends cleanly, like a signal-killed task; defers have run.
		default:
			// A real panic in simulation code: surface it with the
			// process identity attached. iter.Pull re-panics it in
			// Run's caller, which crashes the program: the desired
			// behaviour for a kernel-level bug.
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

// wait names one wait of a process: the process and the gen its slot
// took for it. A wait is a value, so parking allocates nothing; event
// queue items, Event, SharedLink, Resource and Queue hold it to wake the
// process later. Several wakes may name the same wait (event trigger,
// timeout, interrupt); only the first takes effect.
type wait struct {
	p   *Proc
	gen uint64
}

// arm starts a new wait of p and returns it. The caller must park.
func (p *Proc) arm() wait {
	p.gen++
	p.armed = true
	return wait{p, p.gen}
}

// park blocks the calling process, which has armed a wait, until a wake
// of that wait takes effect, and returns the wake kind. Must run in
// process context.
func (p *Proc) park() wakeKind {
	if p.intPending {
		p.intPending = false
		p.armed = false // every wake already scheduled for this wait is stale
		panic(p.interrupted())
	}
	e := p.eng
	if e.inCallback {
		panic("sim: blocking call from an event callback")
	}
	e.parks++
	// Blocking in a defer while Close kills the process hands control
	// back to Close, which kills it again.
	e.dispatch(p.w)
	switch k := e.wokenKind; k {
	case wakeKilled:
		panic(stoppedError{p})
	case wakeInterrupted:
		panic(p.interrupted())
	default:
		return k
	}
}

// interrupted takes the reason of the interrupt being delivered.
func (p *Proc) interrupted() *Interrupted {
	reason := p.intReason
	p.intReason = nil
	return &Interrupted{Reason: reason}
}

// wake marks the waiting process to run next, unless w is stale: a wait
// older than the process's current one, or one a wake already won. Must
// run in kernel context (an event of the queue), as the last action of
// the event; one event wakes at most one process.
func (w wait) wake(k wakeKind) {
	p := w.p
	if !p.armed || w.gen != p.gen {
		return
	}
	p.armed = false
	e := p.eng
	if e.woken != nil {
		panic("sim: one event woke two processes")
	}
	e.woken, e.wokenKind = p, k
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, so other events at the same
// timestamp that were scheduled earlier run first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, p.daemon, p.arm(), wakeFired, nil)
	p.park()
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
	ev.add(p.arm())
	p.park()
}

// WaitTimeout blocks until ev is triggered or d elapses. It reports
// whether the event fired (true) as opposed to the timeout expiring.
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) bool {
	if ev.triggered {
		p.Yield()
		return true
	}
	w := p.arm()
	ev.add(w)
	p.eng.schedule(p.eng.now+d, p.daemon, w, wakeTimeout, nil)
	return p.park() == wakeFired
}
