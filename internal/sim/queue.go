//go:build go1.23

package sim

// Queue is an unbounded FIFO channel in virtual time. Producers never
// block; consumers block until an item is available. Multiple consumers
// are served in the order they started waiting.
//
// Items, blocked consumers and handed-over items each live in a growable
// ring buffer: Put, TryGet, a blocking Get and the interrupt path's
// put-back are all O(1) and allocate nothing once the rings have grown,
// and a queue that cycles millions of events (the coordination store
// under a 10^5-unit sweep) reuses one allocation instead of shedding
// backing arrays as the head advances.
type Queue[T any] struct {
	eng     *Engine
	items   ring[T]
	waiters ring[wait] // blocked consumers, oldest first
	// handed holds items Put gave to woken consumers that have not run
	// yet, in the order it gave them.
	handed ring[handoff[T]]
}

type handoff[T any] struct {
	w wait
	v T
}

// NewQueue creates an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Len returns the number of buffered items (items already handed to a
// blocked consumer are not counted).
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends v to the queue, waking the oldest waiting consumer if any.
func (q *Queue[T]) Put(v T) {
	if q.waiters.len() == 0 {
		q.items.pushBack(v)
		return
	}
	w := q.waiters.popFront()
	q.handed.pushBack(handoff[T]{w, v})
	q.eng.signal(w)
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.popFront(), true
}

// Get blocks p until an item is available and returns it. If the wait is
// interrupted, the consumer is withdrawn; an item that had already been
// handed to it is put back at the head of the queue before the panic
// propagates.
func (q *Queue[T]) Get(p *Proc) T {
	v, _ := q.get(p, false, 0)
	return v
}

// GetTimeout blocks p until an item is available or d elapses. The boolean
// reports whether an item was received.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (T, bool) {
	return q.get(p, true, d)
}

// get is GetTimeout when timed, else Get.
func (q *Queue[T]) get(p *Proc, timed bool, d Duration) (T, bool) {
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	w := p.arm()
	q.waiters.pushBack(w)
	if timed {
		q.eng.schedule(q.eng.now+d, p.daemon, w, wakeTimeout, nil)
	}
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		if v, ok := q.take(w); ok {
			// Delivered but never consumed: put it back first.
			q.items.pushFront(v)
		} else {
			q.drop(w)
		}
		panic(e)
	}()
	p.park()
	// An item Put handed over in the deadline's instant, before the
	// timeout's wake ran, is still received.
	if v, ok := q.take(w); ok {
		return v, true
	}
	q.drop(w) // timed out
	var zero T
	return zero, false
}

// take removes and returns the item handed to w, if any.
func (q *Queue[T]) take(w wait) (T, bool) {
	for i := 0; i < q.handed.len(); i++ {
		if h := q.handed.at(i); h.w == w {
			v := h.v
			q.handed.remove(i)
			return v, true
		}
	}
	var zero T
	return zero, false
}

// drop withdraws w from the blocked consumers, if it is still there.
func (q *Queue[T]) drop(w wait) {
	for i := 0; i < q.waiters.len(); i++ {
		if *q.waiters.at(i) == w {
			q.waiters.remove(i)
			return
		}
	}
}

// ring is a growable FIFO ring buffer of values. Its length is zero or a
// power of two, so indexes wrap with a mask.
type ring[T any] struct {
	buf   []T
	head  int
	count int
}

func (r *ring[T]) len() int { return r.count }

// at returns the i-th value from the head.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// grow doubles the ring, unwrapping it into the new backing array.
func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.count; i++ {
		buf[i] = *r.at(i)
	}
	r.buf = buf
	r.head = 0
}

// pushBack appends v at the tail.
func (r *ring[T]) pushBack(v T) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.count++
	*r.at(r.count - 1) = v
}

// pushFront prepends v at the head.
func (r *ring[T]) pushFront(v T) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.count++
}

// popFront removes and returns the head value; the vacated slot is zeroed
// so popped values do not pin garbage.
func (r *ring[T]) popFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return v
}

// remove deletes the i-th value from the head, moving later ones forward.
func (r *ring[T]) remove(i int) {
	if i == 0 {
		r.popFront()
		return
	}
	for ; i < r.count-1; i++ {
		*r.at(i) = *r.at(i + 1)
	}
	var zero T
	*r.at(r.count - 1) = zero
	r.count--
}
