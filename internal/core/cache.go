package core

import (
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sim"
)

// UnitKey derives the content address of a Compute-Unit's result from
// its description: the executable, the arguments, the input Data-Units
// (by logical name and size) and the declared output Data-Units — the
// fields that determine what the unit computes. Resource demands
// (Cores, MemoryMB, Launch) and staging costs are excluded: they change
// how fast a unit runs, never what it produces. Inputs and Outputs are
// digested in name order, so permuted-but-equal descriptions share one
// key. Nil DataRefs are skipped, like everywhere else.
//
// The digest cannot see a unit's Body, so the determinism contract is
// the caller's: under WithResultCache, Executable plus Arguments plus
// the input Data-Units must fully determine the declared outputs. Units
// that declare no outputs have no replayable result and are reported
// uncacheable (cache.ErrNoOutputs, wrapping cache.ErrUncacheable); they
// always execute.
func UnitKey(d ComputeUnitDescription) (cache.Key, error) {
	d = d.withDefaults()
	var in, out [16]cache.ObjectRef // the usual sizes stay on the stack
	return cache.DigestKey(d.Executable, d.Arguments,
		refObjects(in[:0], d.Inputs), refObjects(out[:0], d.Outputs))
}

// refObjects appends to out the name+size identity the digest consumes
// of each DataRef.
func refObjects(out []cache.ObjectRef, refs []DataRef) []cache.ObjectRef {
	for _, ref := range refs {
		if ref.Unit == nil {
			continue
		}
		out = append(out, cache.ObjectRef{Name: ref.Unit.Name(), SizeBytes: ref.Unit.SizeBytes()})
	}
	return out
}

// WithResultCache equips the UnitManager with a content-addressed
// result cache bounded by capacityBytes of cached output bytes (<= 0:
// unbounded). Submissions whose UnitKey matches a completed unit finish
// immediately — their declared Outputs are staged as ordinary replicas,
// the bind loop is never entered — and concurrent identical submissions
// coalesce singleflight-style: one leader executes while the rest park
// in UnitPendingResult and are completed (or, if the leader fails,
// released to execute independently) when it settles. Uncacheable units
// pass through untouched. Without this option the manager behaves
// exactly as before — the cache is strictly opt-in.
func WithResultCache(capacityBytes int64) UnitManagerOption {
	return func(c *umConfig) {
		c.resultCache = true
		c.resultCacheBytes = capacityBytes
	}
}

// cachedResult is what the result cache stores per key. The declared
// outputs themselves live in the data layer (staged by the leader); the
// cache only needs their summed size for its byte bound, plus enough to
// say "replay is possible".
type cachedResult struct {
	// OutputBytes is the summed declared-output size — the entry's
	// weight against the cache's byte bound.
	OutputBytes int64
}

// CacheSnapshot is the ClusterView's slice of the manager's result
// cache: the counters and gauges of cache.Stats, plus whether a cache
// is configured at all. The zero value reads as "no cache".
type CacheSnapshot struct {
	// Enabled reports whether the manager was built WithResultCache.
	Enabled bool
	cache.Stats
}

// acquireCached consults the result cache for a freshly submitted unit
// and reports whether it fully handled it: true for a hit (the unit is
// completed from the cached result, on p) and for a coalesced duplicate
// (the unit parks in UnitPendingResult until the leader settles). A
// leader or an uncacheable unit returns false and takes the ordinary
// submit path.
func (um *UnitManager) acquireCached(p *sim.Proc, u *Unit) bool {
	if um.rc == nil {
		return false
	}
	key, err := UnitKey(u.Desc)
	if err != nil {
		return false // uncacheable: always execute
	}
	switch outcome, _ := um.rc.Acquire(key, u); outcome {
	case cache.Hit:
		um.recordCache(u, "hit", key)
		um.completeFromCache(p, u)
		return true
	case cache.Coalesced:
		um.recordCache(u, "coalesce", key)
		u.advance(UnitPendingResult)
		return true
	default: // cache.Leader
		um.rcKeys[u] = key
		um.recordCache(u, "lead", key)
		return false
	}
}

// recordCache emits a result-cache traffic event to the attached flight
// recorder, carrying the content address the unit resolved to.
func (um *UnitManager) recordCache(u *Unit, op string, key cache.Key) {
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindCache, Op: op, Unit: u.ID,
			Name: u.Desc.Name, Detail: key.Short()})
	}
}

// completeFromCache finishes a unit from a cached (or just-completed)
// identical result: its declared Outputs are staged as ordinary
// replicas — Stage on a Data-Unit the leader already produced is a
// no-op, a fresh Declare'd one is materialized now — and the unit goes
// straight to UnitDone without ever holding a slot. A staging failure
// fails the unit exactly like stage-out failure on the execution path.
func (um *UnitManager) completeFromCache(p *sim.Proc, u *Unit) {
	if u.State().Final() {
		return
	}
	u.advance(UnitSchedulingUM)
	if err := stageDeclaredOutputs(p, u); err != nil {
		u.fail(err)
		return
	}
	u.advance(UnitDone)
}

// serveName names the process completing a leader's coalesced waiters
// ("cache:serve:<unit ID>") only when the name is read.
type serveName Unit

func (n *serveName) String() string { return "cache:serve:" + n.ID }

// settleFlight runs from the unit's final-state hook: if the unit led a
// result-cache flight, the flight is settled. A UnitDone leader caches
// its result and a spawned process completes the coalesced waiters from
// it, in arrival order; a failed or canceled leader caches nothing —
// never a poisoned entry — and every waiter re-enters the ordinary
// submit path to execute independently. It reports whether waiters were
// released to re-execute: those waiters declare the same output
// Data-Units the dead leader did, so the caller must then NOT cancel
// them as orphans — a released waiter will produce them (and if every
// waiter fails too, the last one's own final-state hook cancels them).
func (um *UnitManager) settleFlight(u *Unit, st UnitState) bool {
	if um.rc == nil {
		return false
	}
	key, leader := um.rcKeys[u]
	if !leader {
		return false
	}
	delete(um.rcKeys, u)
	if st == UnitDone {
		res := cachedResult{OutputBytes: outputBytes(u)}
		waiters := um.rc.Complete(key, res, res.OutputBytes)
		if r := um.session.rec; r != nil {
			r.Record(obs.Event{Kind: obs.KindCache, Op: "complete", Unit: u.ID,
				Name: u.Desc.Name, Bytes: res.OutputBytes, Waiting: len(waiters),
				Detail: key.Short()})
		}
		if len(waiters) == 0 {
			return false
		}
		um.session.eng.SpawnNamed((*serveName)(u), func(p *sim.Proc) {
			for _, w := range waiters {
				um.completeFromCache(p, w)
			}
		})
		return false
	}
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindCache, Op: "abort", Unit: u.ID,
			Name: u.Desc.Name, Detail: key.Short()})
	}
	released := false
	for _, w := range um.rc.Abort(key) {
		um.recordCache(w, "requeue", key)
		um.requeueWaiter(w)
		released = true
	}
	return released
}

// requeueWaiter sends a coalesced waiter whose leader failed back
// through Submit's admission (the leader may have died before producing
// anything). It deliberately does not retry the cache: waiters of a
// failed leader execute independently rather than pile onto another
// flight.
func (um *UnitManager) requeueWaiter(u *Unit) {
	if u.State().Final() {
		return
	}
	switch um.admit(u) {
	case UnitPendingInput:
		um.bumpGen()
	case UnitSchedulingUM:
		um.kick()
	}
}
