package sim

// Event is a one-shot condition in virtual time. Any number of processes
// may Wait on it; Trigger wakes all of them. Events are not reusable:
// after Trigger, Wait returns immediately.
type Event struct {
	eng       *Engine
	triggered bool
	waiters   []*waiter
}

// NewEvent creates an untriggered event bound to e.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Triggered reports whether Trigger has been called.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, waking all waiting processes at the current
// virtual time in the order they began waiting. Trigger is idempotent.
// It may be called from process or kernel context.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ws := ev.waiters
	ev.waiters = nil
	for _, w := range ws {
		// The wake inherits the woken process's daemon-ness, not the
		// triggering context's: a daemon completing work for a normal
		// process must still count as normal activity.
		ev.eng.schedule(ev.eng.now, w.p.daemon, w, wakeFired, nil)
	}
}

// Gate is a reusable broadcast condition: processes wait for the gate to
// open; while open, waits pass through immediately. Closing the gate makes
// subsequent waits block again. It is useful for "cluster is up" /
// "queue non-empty" style conditions that can flip repeatedly.
type Gate struct {
	eng  *Engine
	open bool
	ev   *Event
}

// NewGate returns a Gate in the given initial state.
func NewGate(e *Engine, open bool) *Gate {
	return &Gate{eng: e, open: open, ev: NewEvent(e)}
}

// IsOpen reports whether the gate currently lets waiters through.
func (g *Gate) IsOpen() bool { return g.open }

// Open releases all current waiters and lets future waiters pass.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	g.ev.Trigger()
}

// Shut makes future waiters block. Processes already released keep
// running.
func (g *Gate) Shut() {
	if !g.open {
		return
	}
	g.open = false
	g.ev = NewEvent(g.eng)
}

// Await blocks p until the gate is open.
func (g *Gate) Await(p *Proc) {
	for !g.open {
		p.Wait(g.ev)
	}
}
