//go:build go1.23

package sim

import "fmt"

// Resource is a counting semaphore in virtual time with FIFO admission:
// requests are granted strictly in arrival order, so a large request at
// the head of the queue blocks smaller later ones (no starvation, no
// overtaking). It models pools such as CPU cores on a node or admission
// slots in a daemon. A blocked request is a value in the resource's own
// queue, and parks on its process's wait slot.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	queue    ring[request]
}

// request is a blocked acquisition of n units by wait w.
type request struct {
	n int
	w wait
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
func (r *Resource) Queued() int { return r.queue.len() }

// Acquire blocks p until n units are available and takes them. If the
// wait is interrupted (Proc.Interrupt) or the engine shuts down, the
// pending request is withdrawn — or, if it had already been granted, the
// units are returned — before the panic propagates.
func (r *Resource) Acquire(p *Proc, n int) {
	r.check(n)
	if r.queue.len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := p.arm()
	r.queue.pushBack(request{n, w})
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		if !r.withdraw(w) {
			r.inUse -= n // granted in the meantime: hand the units back
		}
		r.grant() // either way, others may fit now
		panic(e)
	}()
	p.park()
}

// withdraw removes w's request from the queue, reporting whether it was
// still queued (not yet granted).
func (r *Resource) withdraw(w wait) bool {
	for i := 0; i < r.queue.len(); i++ {
		if r.queue.at(i).w == w {
			r.queue.remove(i)
			return true
		}
	}
	return false
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
	for r.queue.len() > 0 {
		req := r.queue.at(0)
		if r.inUse+req.n > r.capacity {
			return
		}
		r.inUse += req.n
		r.eng.signal(r.queue.popFront().w)
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
