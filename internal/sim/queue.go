//go:build go1.23

package sim

// Queue is an unbounded FIFO channel in virtual time. Producers never
// block; consumers block until an item is available. Multiple consumers
// are served in the order they started waiting.
//
// Items live in a growable ring buffer: Put, TryGet and the interrupt
// path's put-back are all O(1), and a queue that cycles millions of
// events (the coordination store under a 10^5-unit sweep) reuses one
// allocation instead of shedding backing arrays as the head advances.
type Queue[T any] struct {
	eng     *Engine
	buf     []T
	head    int
	count   int
	waiters []*qWaiter[T]
	whead   int
}

type qWaiter[T any] struct {
	ev    *Event
	item  T
	given bool
}

// NewQueue creates an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Len returns the number of buffered items (items already handed to a
// blocked consumer are not counted).
func (q *Queue[T]) Len() int { return q.count }

// grow doubles the ring, unwrapping it into the new backing array.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.count; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// pushBack appends v at the tail of the ring.
func (q *Queue[T]) pushBack(v T) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
}

// pushFront prepends v at the head of the ring (the interrupt put-back).
func (q *Queue[T]) pushFront(v T) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
	q.buf[q.head] = v
	q.count++
}

// popFront removes and returns the head item; the vacated slot is zeroed
// so popped values do not pin garbage.
func (q *Queue[T]) popFront() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return v
}

// nextWaiter dequeues the oldest live waiter, nil when none remain. The
// waiter list compacts lazily: the head index advances past served and
// withdrawn entries, and the slice resets once drained.
func (q *Queue[T]) nextWaiter() *qWaiter[T] {
	for q.whead < len(q.waiters) {
		w := q.waiters[q.whead]
		q.waiters[q.whead] = nil
		q.whead++
		if q.whead == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.whead = 0
		}
		if w != nil && !w.ev.Triggered() {
			return w
		}
	}
	return nil
}

// Put appends v to the queue, waking the oldest waiting consumer if any.
func (q *Queue[T]) Put(v T) {
	if w := q.nextWaiter(); w != nil {
		w.item = v
		w.given = true
		w.ev.Trigger()
		return
	}
	q.pushBack(v)
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.count == 0 {
		return zero, false
	}
	return q.popFront(), true
}

// Get blocks p until an item is available and returns it. If the wait is
// interrupted, the consumer is withdrawn; an item that had already been
// handed to it is put back at the head of the queue before the panic
// propagates.
func (q *Queue[T]) Get(p *Proc) T {
	if v, ok := q.TryGet(); ok {
		return v
	}
	w := &qWaiter[T]{ev: NewEvent(q.eng)}
	q.waiters = append(q.waiters, w)
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		q.withdraw(w)
		panic(e)
	}()
	p.Wait(w.ev)
	return w.item
}

// withdraw removes a (possibly already-served) waiter after interruption.
func (q *Queue[T]) withdraw(w *qWaiter[T]) {
	if w.given {
		// The item was delivered but never consumed: put it back first.
		q.pushFront(w.item)
		var zero T
		w.item = zero
		w.given = false
		return
	}
	w.ev.Trigger() // make Put (via nextWaiter) skip this waiter
	for i := q.whead; i < len(q.waiters); i++ {
		if q.waiters[i] == w {
			q.waiters[i] = nil
			break
		}
	}
}

// GetTimeout blocks p until an item is available or d elapses. The boolean
// reports whether an item was received.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (T, bool) {
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	w := &qWaiter[T]{ev: NewEvent(q.eng)}
	q.waiters = append(q.waiters, w)
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		q.withdraw(w)
		panic(e)
	}()
	fired := p.WaitTimeout(w.ev, d)
	if !fired {
		// Mark the waiter dead: trigger its event so nextWaiter skips it,
		// and clear its slot eagerly.
		w.ev.Trigger()
		for i := q.whead; i < len(q.waiters); i++ {
			if q.waiters[i] == w {
				q.waiters[i] = nil
				break
			}
		}
		var zero T
		return zero, false
	}
	return w.item, w.given
}
