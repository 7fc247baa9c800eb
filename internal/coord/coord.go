// Package coord models the shared MongoDB instance RADICAL-Pilot uses for
// client↔agent coordination: the Unit-Manager queues new Compute-Units in
// the database (paper step U.2), the Pilot-Agent periodically pulls them
// (U.3), and both sides publish state updates through it. Every operation
// pays a configurable round-trip latency, which is the wide-area hop
// between the user's machine and the database.
package coord

import (
	"time"

	"repro/internal/sim"
)

// Store is a document store with named work queues.
type Store struct {
	eng    *sim.Engine
	rtt    sim.Duration
	queues map[string]*sim.Queue[any]
}

// NewStore creates a store whose operations cost one rtt round trip each.
// A zero rtt is permitted (tests).
func NewStore(e *sim.Engine, rtt sim.Duration) *Store {
	return &Store{
		eng:    e,
		rtt:    rtt,
		queues: make(map[string]*sim.Queue[any]),
	}
}

// Update models a document update, such as the agent's heartbeat. No
// simulated client reads documents back, so only the round trip is
// modelled.
func (s *Store) Update(p *sim.Proc) {
	p.Sleep(s.rtt)
}

// queue returns the named queue, creating it on first use.
func (s *Store) queue(name string) *sim.Queue[any] {
	q := s.queues[name]
	if q == nil {
		q = sim.NewQueue[any](s.eng)
		s.queues[name] = q
	}
	return q
}

// Push appends v to the named queue.
func (s *Store) Push(p *sim.Proc, queueName string, v any) {
	p.Sleep(s.rtt)
	s.queue(queueName).Put(v)
}

// PopWait blocks until an item is available on the queue or the timeout
// expires, paying the round trip up front (the agent's polling request).
func (s *Store) PopWait(p *sim.Proc, queueName string, timeout time.Duration) (any, bool) {
	p.Sleep(s.rtt)
	return s.queue(queueName).GetTimeout(p, timeout)
}
