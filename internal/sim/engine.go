//go:build go1.23

package sim

import (
	"fmt"
	"io"
	"iter"
	"time"
)

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
//
// All Engine methods must be called either before Run (setup), from within
// a process spawned on this engine, or from an event callback scheduled
// with At. The kernel serializes execution, so no additional locking is
// required by callers.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue

	// free holds idle pooled coroutines, most recently idled first.
	free *worker
	// woken and wokenKind are the process the current event woke and how;
	// the coroutine running the loop switches to it once the callback
	// returns. wokenKind is also how the woken process learns why it woke.
	woken     *Proc
	wokenKind wakeKind
	// inCallback is set while an At callback runs, so a panic in one is
	// never mistaken for the death of the process whose coroutine ran it;
	// cbSeq is that callback's sequence number.
	inCallback bool
	cbSeq      uint64

	// head and tail link the live processes in spawn order, so that
	// shutdown is deterministic; live counts them.
	head, tail *Proc
	live       int

	horizon  time.Duration
	running  bool
	closed   bool
	trace    io.Writer
	traceFn  func(at time.Duration, msg string)
	nspawned int

	// liveNormal counts unfinished non-daemon processes; nonDaemon
	// counts queued non-daemon events. The engine stops (like the Go
	// runtime) when both reach zero: daemon service loops alone do not
	// keep a simulation alive.
	liveNormal int
	nonDaemon  int
	// curDaemon tracks whether the currently executing context is a
	// daemon, so newly scheduled callbacks inherit it.
	curDaemon bool

	// events, parks and switches are work counters; see Stats.
	events, parks, switches int64
}

// NewEngine returns a ready-to-use engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Stats reports the engine's work since it was created: events popped
// from the queue (wakes and callbacks), parks (blocking calls such as
// Sleep and Wait), switches (handoffs of control to another process's
// coroutine; a wake of the parking process itself is none) and spawns.
// The counts depend only on the simulated work, not on the host.
func (e *Engine) Stats() (events, parks, switches, spawns int64) {
	return e.events, e.parks, e.switches, int64(e.nspawned)
}

// Now reports the current virtual time as an offset from the start of the
// simulation.
func (e *Engine) Now() time.Duration { return e.now }

// SetTrace directs a human-readable event trace to w. Passing nil disables
// tracing. The trace is intended for debugging and the verbose modes of
// the command-line tools.
func (e *Engine) SetTrace(w io.Writer) { e.trace = w }

// SetTraceFunc installs a structured trace sink: fn receives every Tracef
// line with its virtual timestamp. It works alongside any SetTrace writer
// (both receive the line) and is how a flight recorder folds engine-level
// events into its timeline. Passing nil uninstalls the sink.
func (e *Engine) SetTraceFunc(fn func(at time.Duration, msg string)) { e.traceFn = fn }

// Tracef writes a trace line stamped with the current virtual time. With
// no SetTrace or SetTraceFunc sink installed it returns before formatting.
func (e *Engine) Tracef(format string, args ...any) {
	if e.trace == nil && e.traceFn == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if e.trace != nil {
		fmt.Fprintf(e.trace, "[%12s] %s\n", e.now, msg)
	}
	if e.traceFn != nil {
		e.traceFn(e.now, msg)
	}
}

// item is a scheduled event: either a wake of wait w with kind, or a
// callback fn. Callbacks run in kernel context: they must not block in
// virtual time (use Spawn for blocking logic).
type item struct {
	at     time.Duration
	seq    uint64
	w      wait
	fn     func()
	daemon bool
	kind   wakeKind
}

// eventQueue is a binary min-heap of items ordered by (at, seq). Sifts
// move items into a hole rather than swapping them, halving the writes.
type eventQueue []item

func before(a, b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *eventQueue) push(it item) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&it, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	*q = h
}

func (q *eventQueue) pop() item {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = item{} // release the callback and process for collection
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(&h[r], &h[c]) {
				c = r
			}
			if !before(&h[c], &last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// schedule enqueues an event at absolute virtual time at: a wake of w with
// kind, or the callback fn when w is the zero wait. Times in the past are
// clamped to the current time. It returns the event's sequence number.
func (e *Engine) schedule(at time.Duration, daemon bool, w wait, kind wakeKind, fn func()) uint64 {
	if e.closed {
		panic("sim: schedule on closed engine")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	if !daemon {
		e.nonDaemon++
	}
	e.queue.push(item{at: at, seq: e.seq, w: w, fn: fn, daemon: daemon, kind: kind})
	return e.seq
}

// signal schedules a wake of w at the current time. The wake inherits the
// woken process's daemon-ness, not the signalling context's: a daemon
// completing work for a normal process must still count as normal
// activity.
func (e *Engine) signal(w wait) {
	e.schedule(e.now, w.p.daemon, w, wakeFired, nil)
}

// At schedules fn to run in kernel context after delay d. fn must not call
// blocking process methods; spawn a process for logic that needs to wait.
// A negative delay is treated as zero. Callbacks scheduled from daemon
// context are daemon callbacks (they do not keep the simulation alive).
func (e *Engine) At(d time.Duration, fn func()) { e.after(d, e.curDaemon, fn) }

// AtDaemon schedules a maintenance callback (timeout enforcement,
// heartbeat checks) that never keeps the simulation alive on its own.
func (e *Engine) AtDaemon(d time.Duration, fn func()) { e.after(d, true, fn) }

// after schedules callback fn after delay d, clamped at zero, and returns
// its sequence number.
func (e *Engine) after(d time.Duration, daemon bool, fn func()) uint64 {
	return e.schedule(e.now+d, daemon, wait{}, 0, fn)
}

// Run executes events until the simulation quiesces: the queue is empty,
// or only daemon activity remains (no live non-daemon process and no
// queued non-daemon event). It may be called repeatedly; processes blocked
// on events that were never triggered remain blocked across calls. Use
// Close to tear blocked processes and daemons down.
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil is Run with a time horizon: events with timestamps not
// exceeding horizon execute, then the clock advances to horizon. A
// negative horizon means "no horizon".
func (e *Engine) RunUntil(horizon time.Duration) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	if e.closed {
		panic("sim: Run on closed engine")
	}
	e.running = true
	e.horizon = horizon
	defer func() { e.running, e.inCallback = false, false }()
	for w := e.pick(nil); w != nil; {
		w, _ = w.resume()
	}
	e.curDaemon = false
	if horizon > e.now {
		e.now = horizon
	}
}

// next runs events in (at, seq) order until one wakes a process, and
// returns that process; nil means the run is over.
func (e *Engine) next() *Proc {
	for len(e.queue) > 0 && (e.liveNormal > 0 || e.nonDaemon > 0) {
		if e.horizon >= 0 && e.queue[0].at > e.horizon {
			break
		}
		it := e.queue.pop()
		e.events++
		if !it.daemon {
			e.nonDaemon--
		}
		e.now = it.at
		e.curDaemon = it.daemon
		if it.w.p != nil {
			it.w.wake(it.kind)
		} else {
			e.inCallback, e.cbSeq = true, it.seq
			it.fn()
			e.inCallback = false
		}
		if p := e.woken; p != nil {
			e.woken = nil
			return p
		}
	}
	return nil
}

// dispatch runs the event loop on self, the worker that holds control,
// until an event wakes a process or the run ends. A wake of self's own
// process returns at once. Otherwise self yields the worker to resume
// next (nil: Run's caller) to the trampoline in RunUntil, and dispatch
// returns once self is resumed, or stopped by Close if it was idle.
func (e *Engine) dispatch(self *worker) {
	to := e.pick(self)
	if to == self {
		return
	}
	if self.p == nil {
		self.next, e.free = e.free, self
	}
	self.yield(to)
}

// pick runs events until one wakes a process and returns the worker that
// should run next: the woken process's, or nil for Run's caller once the
// run is over. self is the worker running the loop, nil for Run's
// caller. Outside Run, Close is killing processes, and control goes
// straight back to it.
func (e *Engine) pick(self *worker) *worker {
	if !e.running {
		return nil
	}
	p := e.next()
	if p == nil {
		return nil
	}
	e.curDaemon = p.daemon // schedules from process context inherit
	if p.w == nil {
		e.start(self, p)
	}
	if p.w != self {
		e.switches++
	}
	return p.w
}

// start binds a process that has not run yet to a worker: self when self
// is idle, else a pooled one, else a new one.
func (e *Engine) start(self *worker, p *Proc) {
	w := self
	switch {
	case self != nil && self.p == nil:
	case e.free != nil:
		w, e.free = e.free, e.free.next
		w.next = nil
	default:
		w = e.newWorker()
	}
	w.p, p.w = p, w
}

// newWorker returns a coroutine that runs one process after another,
// keeping the stack it has grown, until Close stops it while idle. It
// starts on its first resume, with its first process already bound.
func (e *Engine) newWorker() *worker {
	w := new(worker)
	w.resume, w.stop = iter.Pull(func(yield func(*worker) bool) {
		w.yield = yield
		for w.p != nil {
			w.p.run()
			w.p = nil
			e.dispatch(w)
		}
	})
	return w
}

// Close terminates all still-live processes in spawn order and discards
// any remaining events. It is safe to call Close multiple times. After
// Close the engine cannot be reused.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	// Killing a process may spawn cleanup work or trigger events; loop
	// until the live set is empty.
	for p := e.head; p != nil; p = e.head {
		if p.w == nil {
			p.finish() // never started: nothing to unwind
			continue
		}
		e.wokenKind = wakeKilled
		if _, ok := p.w.resume(); !ok {
			p.finish() // its coroutine died with a callback's panic
		}
	}
	for w := e.free; w != nil; w = e.free {
		e.free = w.next
		w.stop()
	}
	e.queue = nil
	e.nonDaemon = 0
	e.closed = true
}

// Processes reports the number of live (not yet finished) processes. It is
// primarily useful in tests to assert that no process leaked.
func (e *Engine) Processes() int { return e.live }
