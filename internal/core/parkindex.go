package core

// parkIndex is the Unit-Manager's waiting-unit index: every unit
// awaiting (re)binding lives here, ordered by (Priority desc,
// insertion seq asc), maintained structurally instead of by a per-pass
// sort.
//
// Entries split into two tiers. The `must` heap holds units that must
// be offered to the policy on the next pass regardless of cluster
// state: fresh arrivals (first offer decides bind / park /
// ErrUnschedulable) and units parked by policies the manager cannot
// reason about. The `classes` heaps hold units parked by a
// CapacityGated policy, one heap per core demand: popBest only looks
// at classes the current free capacity admits, so a pass never touches
// an entry it would not offer, and a skipped entry keeps its stamp (and
// so its FIFO place among equal priorities).
//
// The aside list carries entries popped during the current pass that
// must not be re-offered within it (units the policy re-parked and
// entries stamped mid-pass); flushAside returns them to the heaps
// between passes. Aggregate unit/core counts over heaps and aside feed
// the incremental ClusterView.
type parkIndex struct {
	// nextSeq stamps insertion order; entries with seq below a pass's
	// boundary belong to that pass's batch.
	nextSeq uint64
	must    parkHeap
	// classes holds one heap per core demand, in ascending demand order;
	// a class stays (possibly empty) once created.
	classes []parkClass
	aside   []parkEntry

	// units/cores aggregate the heap entries; asideUnits/asideCores the
	// aside list. Stale entries (units that reached a final state while
	// parked) stay counted until their pop drops them.
	units, cores           int
	asideUnits, asideCores int

	// pops counts successful popBest calls: the index's work measure.
	pops int64
}

// parkClass is the gated tier's heap for one core demand.
type parkClass struct {
	cores int
	heap  parkHeap
}

// parkEntry is one parked unit. gated records which tier it belongs to.
type parkEntry struct {
	u     *Unit
	prio  float64
	cores int
	seq   uint64
	gated bool
}

// stamp assigns the next insertion seq to e and records it on the unit
// (the hidden-batch check in view refreshes reads it back).
func (x *parkIndex) stamp(e *parkEntry) {
	e.seq = x.nextSeq
	x.nextSeq++
	e.u.parkSeq = e.seq
}

// push inserts a freshly stamped entry for u into its tier's heap.
func (x *parkIndex) push(u *Unit, gated bool) {
	e := parkEntry{u: u, prio: u.Desc.Priority, cores: u.Desc.Cores, gated: gated}
	x.stamp(&e)
	x.insert(e)
}

// insert places an already-stamped entry into its tier's heap.
func (x *parkIndex) insert(e parkEntry) {
	if !e.gated {
		x.must.push(e)
	} else {
		x.class(e.cores).push(e)
	}
	x.units++
	x.cores += e.cores
}

// class returns the heap for a core demand, creating it in demand order.
func (x *parkIndex) class(cores int) *parkHeap {
	i := 0
	for i < len(x.classes) && x.classes[i].cores < cores {
		i++
	}
	if i == len(x.classes) || x.classes[i].cores != cores {
		x.classes = append(x.classes, parkClass{})
		copy(x.classes[i+1:], x.classes[i:])
		x.classes[i] = parkClass{cores: cores}
	}
	return &x.classes[i].heap
}

// popBest removes and returns the best-ranked entry among the must heap
// and the gated classes admit accepts: highest priority first,
// insertion order among equals. Entries of classes admit rejects stay
// where they are. It reports false when nothing offerable is left.
func (x *parkIndex) popBest(admit func(cores int) bool) (parkEntry, bool) {
	var best *parkHeap
	if len(x.must) > 0 {
		best = &x.must
	}
	for i := range x.classes {
		c := &x.classes[i]
		if len(c.heap) == 0 || best != nil && !parkLess(&c.heap[0], &(*best)[0]) || !admit(c.cores) {
			continue
		}
		best = &c.heap
	}
	if best == nil {
		return parkEntry{}, false
	}
	e := best.pop()
	x.units--
	x.cores -= e.cores
	x.pops++
	return e, true
}

// setAside holds a popped entry out of the heaps until flushAside — it
// keeps its stamp, stays visible in the waiting counts, and cannot be
// re-offered within the current pass.
func (x *parkIndex) setAside(e parkEntry) {
	x.aside = append(x.aside, e)
	x.asideUnits++
	x.asideCores += e.cores
}

// flushAside returns every aside entry to the heaps, between passes.
func (x *parkIndex) flushAside() {
	for _, e := range x.aside {
		x.insert(e)
	}
	x.aside = x.aside[:0]
	x.asideUnits, x.asideCores = 0, 0
}

// forEachUnit visits every parked unit (heaps and aside) in no
// particular order; callers must only accumulate commutatively.
func (x *parkIndex) forEachUnit(fn func(*Unit)) {
	for _, e := range x.must {
		fn(e.u)
	}
	for _, c := range x.classes {
		for _, e := range c.heap {
			fn(e.u)
		}
	}
	for _, e := range x.aside {
		fn(e.u)
	}
}

// parkHeap is a binary heap of parkEntry ordered by parkLess.
type parkHeap []parkEntry

// parkLess orders bind candidates: higher priority first, then
// insertion order.
func parkLess(a, b *parkEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (h *parkHeap) push(e parkEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !parkLess(&e, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

func (h *parkHeap) pop() parkEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = parkEntry{} // release the unit for collection
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && parkLess(&s[r], &s[c]) {
				c = r
			}
			if !parkLess(&s[c], &last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}
