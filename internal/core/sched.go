package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Slot is an agent-level resource reservation for one unit.
type Slot struct {
	// Node is the placement for node-bound launch methods (fork/mpi);
	// nil for YARN/Spark, which place containers themselves.
	Node  *cluster.Node
	Cores int
	MemMB int64
}

// AgentScheduler is the agent's application-level scheduler: it admits
// units onto the pilot's resources. A Backend's Bootstrap returns the
// scheduler matching its resource model. The built-in HPC and YARN
// schedulers are FIFO with head-of-line blocking (like RADICAL-Pilot's
// schedulers) and private to their backends; NewPoolScheduler is the one
// exported for custom backends.
type AgentScheduler interface {
	// Acquire blocks p until a slot for u is available, or fails
	// immediately when u can never fit.
	Acquire(p *sim.Proc, u *Unit) (*Slot, error)
	// Release returns a slot obtained from Acquire.
	Release(sl *Slot)
}

// fifoLine is the FIFO admission line with head-of-line blocking that
// the continuous and YARN schedulers share, as RADICAL-Pilot's agent
// schedulers do: a unit that does not fit now waits behind every unit
// that arrived before it. The two schedulers differ only in what a slot
// is (cores on one node, or memory in addition to cores), which their
// take and put arithmetic supplies; the line embeds in both and its
// Release is theirs.
type fifoLine struct {
	eng     *sim.Engine
	pool    slotPool
	waiters []*schedWaiter
	// freed is re-armed by awaitFreed and triggered whenever slots are
	// returned, so a pending drain or shrink re-checks its condition.
	freed *sim.Event
}

// slotPool is a scheduler's slot arithmetic: take claims a slot for u,
// or returns nil when u does not fit now; put returns a slot.
type slotPool interface {
	take(u *Unit) *Slot
	put(sl *Slot)
}

type schedWaiter struct {
	u    *Unit
	ev   *sim.Event
	slot *Slot // set when granted
}

// acquire blocks p until the line grants u a slot. An interrupt
// withdraws a parked waiter, or returns the slot of one granted at the
// instant of the interrupt, before the panic propagates.
func (l *fifoLine) acquire(p *sim.Proc, u *Unit) *Slot {
	if len(l.waiters) == 0 {
		if sl := l.pool.take(u); sl != nil {
			return sl
		}
	}
	w := &schedWaiter{u: u, ev: sim.NewEvent(l.eng)}
	l.waiters = append(l.waiters, w)
	defer func() {
		if e := recover(); e != nil {
			if w.slot != nil {
				l.Release(w.slot) // granted but never used: return it
			} else {
				l.remove(w)
			}
			panic(e)
		}
	}()
	p.Wait(w.ev)
	return w.slot
}

// Release returns a slot obtained from Acquire, wakes a pending drain or
// shrink, and grants the parked units that now fit.
func (l *fifoLine) Release(sl *Slot) {
	l.pool.put(sl)
	if l.freed != nil {
		l.freed.Trigger()
	}
	l.serve()
}

// serve grants parked units in arrival order until the head does not
// fit: strict FIFO, the head of the line blocks.
func (l *fifoLine) serve() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		sl := l.pool.take(w.u)
		if sl == nil {
			return
		}
		w.slot = sl
		l.waiters = l.waiters[1:]
		w.ev.Trigger()
	}
}

// remove withdraws a parked waiter; the units behind it may now fit.
func (l *fifoLine) remove(w *schedWaiter) {
	for i, cand := range l.waiters {
		if cand == w {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			break
		}
	}
	l.serve()
}

// awaitFreed blocks p until the next Release.
func (l *fifoLine) awaitFreed(p *sim.Proc) {
	if l.freed == nil || l.freed.Triggered() {
		l.freed = sim.NewEvent(l.eng)
	}
	p.Wait(l.freed)
}

// continuousScheduler assigns cores on individual nodes (RADICAL-Pilot's
// "continuous" scheduler): a unit occupies cores on exactly one node.
// It is elastic: addNodes extends the pool at runtime and drainNodes
// removes nodes drain-then-release.
type continuousScheduler struct {
	fifoLine
	nodes []*cluster.Node
	free  []int
	// maxCores is the largest per-node core count, maintained across
	// addNodes/drainNodes so the can-it-ever-fit check in Acquire is
	// O(1) instead of rescanning every node on every call.
	maxCores int
	// draining marks nodes withheld from placement while drainNodes
	// waits for them to idle.
	draining map[*cluster.Node]bool
}

// newContinuousScheduler builds the per-node core scheduler of the plain
// HPC backend.
func newContinuousScheduler(e *sim.Engine, nodes []*cluster.Node) *continuousScheduler {
	s := &continuousScheduler{fifoLine: fifoLine{eng: e}, draining: make(map[*cluster.Node]bool)}
	s.pool = s
	s.addNodes(nodes)
	return s
}

// addNodes extends the pool with fully free nodes and re-runs the FIFO
// serve loop, so parked units that now fit are granted immediately.
func (s *continuousScheduler) addNodes(nodes []*cluster.Node) {
	for _, n := range nodes {
		s.nodes = append(s.nodes, n)
		s.free = append(s.free, n.Spec.Cores)
		if n.Spec.Cores > s.maxCores {
			s.maxCores = n.Spec.Cores
		}
	}
	s.serve()
}

// drainNodes withholds the given nodes from placement, blocks p until
// every one of them is idle (running units finish undisturbed), then
// removes them from the pool.
func (s *continuousScheduler) drainNodes(p *sim.Proc, nodes []*cluster.Node) {
	for _, n := range nodes {
		s.draining[n] = true
	}
	for !s.idle(nodes) {
		s.awaitFreed(p)
	}
	for _, n := range nodes {
		delete(s.draining, n)
		for i, cand := range s.nodes {
			if cand == n {
				s.nodes = append(s.nodes[:i], s.nodes[i+1:]...)
				s.free = append(s.free[:i], s.free[i+1:]...)
				break
			}
		}
	}
	s.maxCores = 0
	for _, n := range s.nodes {
		if n.Spec.Cores > s.maxCores {
			s.maxCores = n.Spec.Cores
		}
	}
}

// idle reports whether every given node has all its cores free.
func (s *continuousScheduler) idle(nodes []*cluster.Node) bool {
	for _, n := range nodes {
		for i, cand := range s.nodes {
			if cand == n && s.free[i] != n.Spec.Cores {
				return false
			}
		}
	}
	return true
}

// take places u on the first node, in pool order, that is not draining
// and has its cores free.
func (s *continuousScheduler) take(u *Unit) *Slot {
	cores := u.Desc.Cores
	for i, n := range s.nodes {
		if s.draining[n] {
			continue
		}
		if s.free[i] >= cores {
			s.free[i] -= cores
			return &Slot{Node: n, Cores: cores}
		}
	}
	return nil
}

func (s *continuousScheduler) put(sl *Slot) {
	for i, n := range s.nodes {
		if n == sl.Node {
			s.free[i] += sl.Cores
			return
		}
	}
}

func (s *continuousScheduler) Acquire(p *sim.Proc, u *Unit) (*Slot, error) {
	if cores := u.Desc.Cores; cores > s.maxCores {
		return nil, fmt.Errorf("core: unit %s: %w: needs %d cores but the largest node has %d",
			u.ID, ErrUnschedulable, cores, s.maxCores)
	}
	return s.acquire(p, u), nil
}

// yarnScheduler is the paper's YARN-specific agent scheduler: "in
// contrast to other RADICAL-Pilot schedulers, it specifically utilizes
// memory in addition to cores for assigning resource slots", using
// cluster state from the ResourceManager's REST API. Each unit is
// allocated its own container plus its Application Master container, which
// also prevents AM-starvation deadlocks in the underlying cluster.
type yarnScheduler struct {
	fifoLine
	freeMB    int64
	freeCores int
	totalMB   int64
	totCores  int
}

// amOverhead is the managed Application Master container footprint
// reserved per unit (RADICAL-Pilot's AM is a small Java shim).
var amOverhead = Slot{Cores: 1, MemMB: 512}

// newYARNScheduler builds the memory-and-cores scheduler of the YARN
// backend, sized to the connected cluster's capacity.
func newYARNScheduler(e *sim.Engine, totalMB int64, totalCores int) *yarnScheduler {
	s := &yarnScheduler{
		fifoLine: fifoLine{eng: e},
		freeMB:   totalMB, freeCores: totalCores,
		totalMB: totalMB, totCores: totalCores,
	}
	s.pool = s
	return s
}

func (s *yarnScheduler) demand(u *Unit) (int64, int) {
	// Memory admission counts the unit's container plus its AM (the
	// scheduler's "memory in addition to cores"); cores count only the
	// unit, since YARN's default calculator does not gate on vcores.
	return u.Desc.MemoryMB + amOverhead.MemMB, u.Desc.Cores
}

func (s *yarnScheduler) take(u *Unit) *Slot {
	mb, cores := s.demand(u)
	if mb > s.freeMB || cores > s.freeCores {
		return nil
	}
	s.freeMB -= mb
	s.freeCores -= cores
	return &Slot{Cores: cores, MemMB: mb}
}

func (s *yarnScheduler) put(sl *Slot) {
	s.freeMB += sl.MemMB
	s.freeCores += sl.Cores
}

func (s *yarnScheduler) Acquire(p *sim.Proc, u *Unit) (*Slot, error) {
	if mb, cores := s.demand(u); mb > s.totalMB || cores > s.totCores {
		return nil, fmt.Errorf("core: unit %s: %w: (%d MB, %d cores + AM) exceeds cluster capacity (%d MB, %d cores)",
			u.ID, ErrUnschedulable, u.Desc.MemoryMB, u.Desc.Cores, s.totalMB, s.totCores)
	}
	return s.acquire(p, u), nil
}

// growCapacity raises the cluster capacity the scheduler admits against
// (new NodeManagers registered with the RM) and re-runs the FIFO serve
// loop so parked units that now fit are granted immediately.
func (s *yarnScheduler) growCapacity(mb int64, cores int) {
	s.totalMB += mb
	s.totCores += cores
	s.freeMB += mb
	s.freeCores += cores
	s.serve()
}

// shrinkCapacity retires capacity drain-then-release: it blocks p until
// the requested memory and cores are free (no admitted unit loses its
// slot), then removes them from the pool.
func (s *yarnScheduler) shrinkCapacity(p *sim.Proc, mb int64, cores int) {
	for s.freeMB < mb || s.freeCores < cores {
		s.awaitFreed(p)
	}
	s.freeMB -= mb
	s.freeCores -= cores
	s.totalMB -= mb
	s.totCores -= cores
}

// poolScheduler admits units against a single core pool (the Spark
// agent scheduler: executor core slots).
type poolScheduler struct {
	res *sim.Resource
}

// NewPoolScheduler builds a single-pool core scheduler — the Spark
// backend's model, and the simplest choice for custom backends whose
// runtime does its own placement.
func NewPoolScheduler(e *sim.Engine, cores int) AgentScheduler {
	return &poolScheduler{res: sim.NewResource(e, cores)}
}

func (s *poolScheduler) Acquire(p *sim.Proc, u *Unit) (*Slot, error) {
	if u.Desc.Cores > s.res.Capacity() {
		return nil, fmt.Errorf("core: unit %s: %w: needs %d cores but the pool has %d",
			u.ID, ErrUnschedulable, u.Desc.Cores, s.res.Capacity())
	}
	s.res.Acquire(p, u.Desc.Cores)
	return &Slot{Cores: u.Desc.Cores}, nil
}

func (s *poolScheduler) Release(sl *Slot) {
	s.res.Release(sl.Cores)
}
