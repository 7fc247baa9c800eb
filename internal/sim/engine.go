package sim

import (
	"container/heap"
	"fmt"
	"io"
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
	queue eventHeap

	// yield is the channel on which the currently running process hands
	// control back to the kernel. It is shared by all processes because
	// only one process runs at a time.
	yield chan struct{}

	// procs holds live processes in spawn order so that shutdown is
	// deterministic.
	procs []*Proc

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
}

// NewEngine returns a ready-to-use engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now reports the current virtual time as an offset from the start of the
// simulation.
func (e *Engine) Now() time.Duration { return e.now }

// SetTrace directs a human-readable event trace to w. Passing nil disables
// tracing. Tracing is intended for debugging and the verbose modes of the
// command-line tools.
func (e *Engine) SetTrace(w io.Writer) { e.trace = w }

// SetTraceFunc installs a structured trace sink: fn receives every Tracef
// line with its virtual timestamp. It works alongside any SetTrace writer
// (both receive the line) and is how a flight recorder folds engine-level
// events into its timeline. Passing nil uninstalls the sink.
func (e *Engine) SetTraceFunc(fn func(at time.Duration, msg string)) { e.traceFn = fn }

// Tracing reports whether SetTrace or SetTraceFunc installed a sink. Hot
// call sites guard Tracef with it so that, with no sink, they do not
// box the trace arguments at all.
func (e *Engine) Tracing() bool { return e.trace != nil || e.traceFn != nil }

// Tracef writes a trace line stamped with the current virtual time. It is
// a no-op unless SetTrace or SetTraceFunc installed a sink.
func (e *Engine) Tracef(format string, args ...any) {
	if !e.Tracing() {
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

// item is a scheduled callback. Callbacks run in kernel context: they must
// not block in virtual time (use Spawn for blocking logic).
type item struct {
	at     time.Duration
	seq    uint64
	daemon bool
	fn     func()
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// schedule enqueues fn to run at absolute virtual time at. Times in the
// past are clamped to the current time.
func (e *Engine) schedule(at time.Duration, daemon bool, fn func()) *item {
	if e.closed {
		panic("sim: schedule on closed engine")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	it := &item{at: at, seq: e.seq, daemon: daemon, fn: fn}
	if !daemon {
		e.nonDaemon++
	}
	heap.Push(&e.queue, it)
	return it
}

// At schedules fn to run in kernel context after delay d. fn must not call
// blocking process methods; spawn a process for logic that needs to wait.
// A negative delay is treated as zero. Callbacks scheduled from daemon
// context are daemon callbacks (they do not keep the simulation alive).
func (e *Engine) At(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, e.curDaemon, fn)
}

// AtDaemon schedules a maintenance callback (timeout enforcement,
// heartbeat checks) that never keeps the simulation alive on its own.
func (e *Engine) AtDaemon(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, true, fn)
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
	defer func() { e.running = false }()
	for len(e.queue) > 0 && (e.liveNormal > 0 || e.nonDaemon > 0) {
		if horizon >= 0 && e.queue[0].at > horizon {
			break
		}
		it := heap.Pop(&e.queue).(*item)
		if !it.daemon {
			e.nonDaemon--
		}
		e.now = it.at
		e.curDaemon = it.daemon
		it.fn()
	}
	e.curDaemon = false
	if horizon > e.now {
		e.now = horizon
	}
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
	for {
		var p *Proc
		for _, q := range e.procs {
			if !q.done {
				p = q
				break
			}
		}
		if p == nil {
			break
		}
		if !p.blocked {
			// Not yet started: it is parked on its initial resume.
			p.blocked = true
		}
		p.resumeWith(wakeKilled)
	}
	e.queue = nil
	e.procs = nil
	e.nonDaemon = 0
	e.closed = true
}

// Processes reports the number of live (not yet finished) processes. It is
// primarily useful in tests to assert that no process leaked.
func (e *Engine) Processes() int {
	n := 0
	for _, p := range e.procs {
		if !p.done {
			n++
		}
	}
	return n
}
