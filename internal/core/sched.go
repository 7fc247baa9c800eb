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
// scheduler matching its resource model; the built-in implementations
// are FIFO with head-of-line blocking (like RADICAL-Pilot's schedulers)
// and are exported for reuse by external backends.
type AgentScheduler interface {
	// Acquire blocks p until a slot for u is available, or fails
	// immediately when u can never fit.
	Acquire(p *sim.Proc, u *Unit) (*Slot, error)
	// Release returns a slot obtained from Acquire.
	Release(sl *Slot)
}

// continuousScheduler assigns cores on individual nodes (RADICAL-Pilot's
// "continuous" scheduler): a unit occupies cores on exactly one node.
// It is elastic: AddNodes extends the pool at runtime and DrainNodes
// removes nodes drain-then-release (see NodeScheduler).
type continuousScheduler struct {
	eng     *sim.Engine
	nodes   []*cluster.Node
	free    []int
	waiters []*schedWaiter
	// maxCores is the largest per-node core count, maintained across
	// AddNodes/DrainNodes so the can-it-ever-fit check in Acquire is
	// O(1) instead of rescanning every node on every call.
	maxCores int
	// draining marks nodes withheld from placement while DrainNodes
	// waits for them to idle.
	draining map[*cluster.Node]bool
	// freed is re-armed by drain waiters and triggered whenever cores
	// are returned, so a pending drain re-checks idleness.
	freed *sim.Event
}

type schedWaiter struct {
	u     *Unit
	ev    *sim.Event
	slot  *Slot
	ready bool
}

// NewContinuousScheduler builds the per-node core scheduler used by the
// plain HPC backend. The returned scheduler also implements
// NodeScheduler, so elastic backends can grow and shrink its node pool.
func NewContinuousScheduler(e *sim.Engine, nodes []*cluster.Node) AgentScheduler {
	s := &continuousScheduler{eng: e, draining: make(map[*cluster.Node]bool)}
	s.AddNodes(nodes)
	return s
}

// AddNodes extends the pool with fully free nodes and re-runs the FIFO
// serve loop, so parked units that now fit are granted immediately.
func (s *continuousScheduler) AddNodes(nodes []*cluster.Node) {
	for _, n := range nodes {
		s.nodes = append(s.nodes, n)
		s.free = append(s.free, n.Spec.Cores)
		if n.Spec.Cores > s.maxCores {
			s.maxCores = n.Spec.Cores
		}
	}
	s.serve()
}

// DrainNodes withholds the given nodes from placement, blocks p until
// every one of them is idle (running units finish undisturbed), then
// removes them from the pool.
func (s *continuousScheduler) DrainNodes(p *sim.Proc, nodes []*cluster.Node) {
	for _, n := range nodes {
		s.draining[n] = true
	}
	for !s.idle(nodes) {
		if s.freed == nil || s.freed.Triggered() {
			s.freed = sim.NewEvent(s.eng)
		}
		p.Wait(s.freed)
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

func (s *continuousScheduler) tryPlace(cores int) *Slot {
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

func (s *continuousScheduler) Acquire(p *sim.Proc, u *Unit) (*Slot, error) {
	cores := u.Desc.Cores
	if cores > s.maxCores {
		return nil, fmt.Errorf("core: unit %s: %w: needs %d cores but the largest node has %d",
			u.ID, ErrUnschedulable, cores, s.maxCores)
	}
	if len(s.waiters) == 0 {
		if sl := s.tryPlace(cores); sl != nil {
			return sl, nil
		}
	}
	w := &schedWaiter{u: u, ev: sim.NewEvent(s.eng)}
	s.waiters = append(s.waiters, w)
	defer func() {
		if e := recover(); e == nil {
			return
		} else {
			if w.ready {
				// Granted but never used: return it.
				s.put(w.slot)
			} else {
				s.remove(w)
			}
			panic(e)
		}
	}()
	p.Wait(w.ev)
	return w.slot, nil
}

func (s *continuousScheduler) Release(sl *Slot) {
	s.put(sl)
	s.serve()
}

func (s *continuousScheduler) put(sl *Slot) {
	for i, n := range s.nodes {
		if n == sl.Node {
			s.free[i] += sl.Cores
			if s.freed != nil {
				s.freed.Trigger() // a pending drain re-checks idleness
			}
			return
		}
	}
}

func (s *continuousScheduler) serve() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		sl := s.tryPlace(w.u.Desc.Cores)
		if sl == nil {
			return // strict FIFO: head of line blocks
		}
		w.slot = sl
		w.ready = true
		s.waiters = s.waiters[1:]
		w.ev.Trigger()
	}
}

func (s *continuousScheduler) remove(w *schedWaiter) {
	for i, cand := range s.waiters {
		if cand == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	s.serve()
}

// yarnScheduler is the paper's YARN-specific agent scheduler: "in
// contrast to other RADICAL-Pilot schedulers, it specifically utilizes
// memory in addition to cores for assigning resource slots", using
// cluster state from the ResourceManager's REST API. Each unit is
// allocated its own container plus its Application Master container, which
// also prevents AM-starvation deadlocks in the underlying cluster.
type yarnScheduler struct {
	eng       *sim.Engine
	freeMB    int64
	freeCores int
	totalMB   int64
	totCores  int
	waiters   []*schedWaiter
	// freed is re-armed by a pending ShrinkCapacity and triggered when
	// slots are released, so the shrink re-checks whether the capacity
	// it wants to retire has come free.
	freed *sim.Event
}

// amOverhead is the managed Application Master container footprint
// reserved per unit (RADICAL-Pilot's AM is a small Java shim).
var amOverhead = Slot{Cores: 1, MemMB: 512}

// NewYARNScheduler builds the memory-and-cores scheduler used by the
// YARN backend, sized to the connected cluster's capacity.
func NewYARNScheduler(e *sim.Engine, totalMB int64, totalCores int) AgentScheduler {
	return &yarnScheduler{
		eng: e, freeMB: totalMB, freeCores: totalCores,
		totalMB: totalMB, totCores: totalCores,
	}
}

func (s *yarnScheduler) demand(u *Unit) (int64, int) {
	// Memory admission counts the unit's container plus its AM (the
	// scheduler's "memory in addition to cores"); cores count only the
	// unit, since YARN's default calculator does not gate on vcores.
	return u.Desc.MemoryMB + amOverhead.MemMB, u.Desc.Cores
}

func (s *yarnScheduler) Acquire(p *sim.Proc, u *Unit) (*Slot, error) {
	mb, cores := s.demand(u)
	if mb > s.totalMB || cores > s.totCores {
		return nil, fmt.Errorf("core: unit %s: %w: (%d MB, %d cores + AM) exceeds cluster capacity (%d MB, %d cores)",
			u.ID, ErrUnschedulable, u.Desc.MemoryMB, u.Desc.Cores, s.totalMB, s.totCores)
	}
	if len(s.waiters) == 0 && mb <= s.freeMB && cores <= s.freeCores {
		s.freeMB -= mb
		s.freeCores -= cores
		return &Slot{Cores: cores, MemMB: mb}, nil
	}
	w := &schedWaiter{u: u, ev: sim.NewEvent(s.eng)}
	s.waiters = append(s.waiters, w)
	defer func() {
		if e := recover(); e == nil {
			return
		} else {
			if w.ready {
				s.Release(w.slot)
			} else {
				s.remove(w)
			}
			panic(e)
		}
	}()
	p.Wait(w.ev)
	return w.slot, nil
}

func (s *yarnScheduler) Release(sl *Slot) {
	s.freeMB += sl.MemMB
	s.freeCores += sl.Cores
	s.serve()
	if s.freed != nil {
		s.freed.Trigger() // a pending shrink re-checks free capacity
	}
}

// GrowCapacity raises the cluster capacity the scheduler admits against
// (new NodeManagers registered with the RM) and re-runs the FIFO serve
// loop so parked units that now fit are granted immediately.
func (s *yarnScheduler) GrowCapacity(mb int64, cores int) {
	s.totalMB += mb
	s.totCores += cores
	s.freeMB += mb
	s.freeCores += cores
	s.serve()
}

// ShrinkCapacity retires capacity drain-then-release: it blocks p until
// the requested memory and cores are free (no admitted unit loses its
// slot), then removes them from the pool.
func (s *yarnScheduler) ShrinkCapacity(p *sim.Proc, mb int64, cores int) {
	for s.freeMB < mb || s.freeCores < cores {
		if s.freed == nil || s.freed.Triggered() {
			s.freed = sim.NewEvent(s.eng)
		}
		p.Wait(s.freed)
	}
	s.freeMB -= mb
	s.freeCores -= cores
	s.totalMB -= mb
	s.totCores -= cores
}

func (s *yarnScheduler) serve() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		mb, cores := s.demand(w.u)
		if mb > s.freeMB || cores > s.freeCores {
			return
		}
		s.freeMB -= mb
		s.freeCores -= cores
		w.slot = &Slot{Cores: cores, MemMB: mb}
		w.ready = true
		s.waiters = s.waiters[1:]
		w.ev.Trigger()
	}
}

func (s *yarnScheduler) remove(w *schedWaiter) {
	for i, cand := range s.waiters {
		if cand == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	s.serve()
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
