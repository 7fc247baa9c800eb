package obs

import "fmt"

// VerifyBinds checks the recorder invariants the scheduler must hold
// on a failure-free run, from the event stream alone: every unit that
// reached DONE by executing was bound exactly once, and every unit the
// result cache completed (a hit, or a coalesced waiter whose leader
// succeeded) was never bound at all. A coalesced waiter whose leader
// aborted is requeued (Op "requeue") and must then bind like any other
// unit. Returns nil when the invariants hold, else an error naming the
// lexically first offending unit.
func VerifyBinds(events []Event) error {
	tallies := make(map[string]bindTally, countDone(events))
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Kind == KindBind:
			t := tallies[ev.Unit]
			t.binds++
			tallies[ev.Unit] = t
		case ev.Kind == KindUnitState && ev.State == "DONE":
			t := tallies[ev.Unit]
			t.done = true
			tallies[ev.Unit] = t
		case ev.Kind == KindCache && (ev.Op == "hit" || ev.Op == "coalesce"):
			t := tallies[ev.Unit]
			t.cached = true
			tallies[ev.Unit] = t
		case ev.Kind == KindCache && ev.Op == "requeue":
			t := tallies[ev.Unit]
			t.requeued = true
			tallies[ev.Unit] = t
		}
	}
	bad, found := "", false
	for id, t := range tallies {
		if t.done && t.binds != t.want() && (!found || id < bad) {
			bad, found = id, true
		}
	}
	if !found {
		return nil
	}
	t := tallies[bad]
	return fmt.Errorf("obs: unit %s: %d bind events, want %d (cached=%v requeued=%v)",
		bad, t.binds, t.want(), t.cached, t.requeued)
}

// bindTally is what VerifyBinds knows of one unit.
type bindTally struct {
	binds    int
	done     bool
	cached   bool // completed by the cache: hit, or coalesce...
	requeued bool // ...unless later requeued to run for itself
}

// want is how many bind events the unit must have once DONE: none when
// the cache completed it, else one.
func (t bindTally) want() int {
	if t.cached && !t.requeued {
		return 0
	}
	return 1
}
