//go:build go1.23

package sim

// Event is a one-shot condition in virtual time. Any number of processes
// may Wait on it; Trigger wakes all of them. Events are not reusable:
// after Trigger, Wait returns immediately. The first waiting process is
// held inline and only later ones go into a slice, so an Event with one
// waiter allocates nothing beyond itself.
type Event struct {
	eng       *Engine
	triggered bool
	first     wait   // the first waiter; zero when none
	more      []wait // later waiters, in the order they began waiting
}

// NewEvent creates an untriggered event bound to e.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Triggered reports whether Trigger has been called.
func (ev *Event) Triggered() bool { return ev.triggered }

// add registers w as the next waiter.
func (ev *Event) add(w wait) {
	if ev.first.p == nil {
		ev.first = w
	} else {
		ev.more = append(ev.more, w)
	}
}

// Trigger fires the event, waking all waiting processes at the current
// virtual time in the order they began waiting. Trigger is idempotent.
// It may be called from process or kernel context.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	if ev.first.p == nil {
		return
	}
	ev.eng.signal(ev.first)
	for _, w := range ev.more {
		ev.eng.signal(w)
	}
	ev.first, ev.more = wait{}, nil
}
