//go:build go1.23

package sim

import "fmt"

// Resource is a counting semaphore in virtual time with FIFO admission:
// requests are granted strictly in arrival order, so a large request at
// the head of the queue blocks smaller later ones (no starvation, no
// overtaking). It models pools such as CPU cores on a node or admission
// slots in a daemon.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	queue    []*resWaiter
}

type resWaiter struct {
	n       int
	ev      *Event
	granted bool
}

// NewResource creates a resource with the given capacity. Capacity must be
// positive.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource capacity must be positive, got %d", capacity))
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently acquired amount.
func (r *Resource) InUse() int { return r.inUse }

// Available returns capacity minus the amount in use.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// Queued returns the number of blocked acquisitions.
func (r *Resource) Queued() int { return len(r.queue) }

// Acquire blocks p until n units are available and takes them. If the
// wait is interrupted (Proc.Interrupt) or the engine shuts down, the
// pending request is withdrawn — or, if it had already been granted, the
// units are returned — before the panic propagates.
func (r *Resource) Acquire(p *Proc, n int) {
	r.check(n)
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := &resWaiter{n: n, ev: NewEvent(r.eng)}
	r.queue = append(r.queue, w)
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		if w.granted {
			r.inUse -= w.n
			r.grant()
		} else {
			for i, cand := range r.queue {
				if cand == w {
					r.queue = append(r.queue[:i], r.queue[i+1:]...)
					r.grant() // our withdrawal may unblock others
					break
				}
			}
		}
		panic(e)
	}()
	p.Wait(w.ev)
}

// Release returns n units and grants as many queued requests (in FIFO
// order) as now fit.
func (r *Resource) Release(n int) {
	r.check(n)
	if r.inUse < n {
		panic(fmt.Sprintf("sim: releasing %d units with only %d in use", n, r.inUse))
	}
	r.inUse -= n
	r.grant()
}

func (r *Resource) grant() {
	for len(r.queue) > 0 {
		w := r.queue[0]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		w.granted = true
		r.queue = r.queue[1:]
		w.ev.Trigger()
	}
}

func (r *Resource) check(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: resource amount must be positive, got %d", n))
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: request of %d exceeds capacity %d", n, r.capacity))
	}
}
