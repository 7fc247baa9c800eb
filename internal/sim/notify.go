//go:build go1.23

package sim

import (
	"cmp"
	"slices"
)

// Notifier is the state-event fabric beneath stateful entities (pilots,
// Compute-Units, Data-Units): it fans each entered state out to
// subscribed callbacks and wakes parked waiters whose threshold the new
// state reaches. Wait/WaitState-style blocking APIs and reactive
// OnStateChange callbacks are both built on it; states skipped on
// failure paths are never reported to subscribers, but a failure's final
// state does wake waiters parked on the skipped states (state enums
// order lifecycle states before final ones, so a final state reaches
// every lifecycle threshold).
//
// There is one waiter class: AwaitMin parks on "state reached at least
// X". Waiters are indexed in a min-heap keyed by threshold, so an
// entered state releases exactly the satisfied ones in O(k log n) —
// entering a state never scans waiters it cannot release. A waiter is
// the parked process's own wait slot, held by value in the heap, so a
// state wait allocates nothing once the heap has grown.
//
// The zero Notifier is ready to use; entities embed it by value.
type Notifier[S cmp.Ordered] struct {
	cbs []func(S)
	// seq orders waiter registration, so releases fire in registration
	// order however their thresholds differ.
	seq uint64
	// th is the threshold min-heap, ordered by (min, seq).
	th []stateWaiter[S]
}

type stateWaiter[S cmp.Ordered] struct {
	min S // release threshold
	seq uint64
	w   wait
}

// Subscribe registers fn for every subsequently entered state.
func (n *Notifier[S]) Subscribe(fn func(S)) {
	n.cbs = append(n.cbs, fn)
}

// Entered reports a state that was actually entered: subscribers fire in
// registration order, then waiters are woken. Entered may be called
// re-entrantly from a subscriber callback; the nested entry's waiter
// releases complete before the outer state's.
func (n *Notifier[S]) Entered(st S) {
	for _, fn := range n.cbs {
		fn(st)
	}
	n.wake(st)
}

// wake releases the waiters st satisfies, in registration order: one
// wake signal each, as a triggered Event would send. Each pop frees the
// slot just past the heap, so the released waiters collect in the
// heap's own spare capacity. Signals only queue events, so a wake never
// re-enters the notifier.
func (n *Notifier[S]) wake(st S) {
	end := len(n.th)
	for len(n.th) > 0 && n.th[0].min <= st {
		sw := n.thPop()
		n.th[:end][len(n.th)] = sw
	}
	released := n.th[len(n.th):end]
	// Pops arrive ordered by (min, seq); restore registration order.
	slices.SortFunc(released, func(a, b stateWaiter[S]) int { return cmp.Compare(a.seq, b.seq) })
	for _, sw := range released {
		sw.w.p.eng.signal(sw.w)
	}
	clear(released) // drop the Proc references
}

// AwaitMin parks p until a state >= min is entered; it returns
// immediately if the current state cur already is. State enums order
// lifecycle states below final ones, so "reached X or ended" waits
// reduce to a threshold.
func (n *Notifier[S]) AwaitMin(p *Proc, cur S, min S) {
	if cur >= min {
		return
	}
	n.seq++
	n.thPush(stateWaiter[S]{min: min, seq: n.seq, w: p.arm()})
	p.park()
}

// thPush inserts w into the threshold heap.
func (n *Notifier[S]) thPush(w stateWaiter[S]) {
	n.th = append(n.th, w)
	i := len(n.th) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !thLess(&n.th[i], &n.th[parent]) {
			break
		}
		n.th[i], n.th[parent] = n.th[parent], n.th[i]
		i = parent
	}
}

// thPop removes and returns the minimum-threshold waiter.
func (n *Notifier[S]) thPop() stateWaiter[S] {
	top := n.th[0]
	last := len(n.th) - 1
	n.th[0] = n.th[last]
	n.th[last] = stateWaiter[S]{}
	n.th = n.th[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(n.th) && thLess(&n.th[l], &n.th[small]) {
			small = l
		}
		if r < len(n.th) && thLess(&n.th[r], &n.th[small]) {
			small = r
		}
		if small == i {
			break
		}
		n.th[i], n.th[small] = n.th[small], n.th[i]
		i = small
	}
	return top
}

func thLess[S cmp.Ordered](a, b *stateWaiter[S]) bool {
	if a.min != b.min {
		return a.min < b.min
	}
	return a.seq < b.seq
}
