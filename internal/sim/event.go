//go:build go1.23

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
