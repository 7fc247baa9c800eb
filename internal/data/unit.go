package data

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// UnitDescription describes one Data-Unit: a logical dataset the manager
// stages onto data pilots (cf. the Pilot-Data DataUnitDescription).
type UnitDescription struct {
	// Name is the logical object name, unique within the manager, e.g.
	// "/data/part-00".
	Name string
	// SizeBytes is the dataset size.
	SizeBytes int64
	// Replication is the target replica count across data pilots
	// (default 1, capped at the number of eligible pilots like HDFS caps
	// at its DataNode count).
	Replication int
	// Affinity prefers the data pilot with this Label (or ID) for the
	// first replica — how an application pins a partition next to the
	// compute pilot that will consume it.
	Affinity string
	// Source is the volume the first replica is staged in from (the
	// paper's stage-in from the shared filesystem). Nil means the
	// dataset is produced in place: only the store's write path is
	// charged — the output-staging case.
	Source storage.Volume
}

// withDefaults normalizes the description.
func (d UnitDescription) withDefaults() UnitDescription {
	if d.Replication <= 0 {
		d.Replication = 1
	}
	return d
}

// Validate reports a descriptive error for invalid descriptions.
func (d UnitDescription) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("data: unit needs a name")
	}
	if d.SizeBytes < 0 {
		return fmt.Errorf("data: unit %s has negative size %d", d.Name, d.SizeBytes)
	}
	return nil
}

// UnitCallback observes a Data-Unit entering a state.
type UnitCallback func(du *Unit, state UnitState)

// Unit is a Data-Unit: a logical dataset with managed replicas on data
// pilots and its own state machine (StateNew → StateStagingIn →
// StateReplicated → final), running on the same state-callback fabric as
// pilots and Compute-Units.
type Unit struct {
	ID   string
	Desc UnitDescription
	mgr  *Manager

	state UnitState
	watch sim.Notifier[UnitState]
	// Timestamps records when each state was entered, indexed by state;
	// the entry of a state the unit never entered is zero. Timestamp
	// reports whether a state was reached.
	Timestamps [numStates]sim.Duration
	reached    uint8 // bit st set once st was entered

	replicas []*Pilot
	// cached are the opportunistic stage-in copies (Manager.CacheReplica):
	// readable like replicas, excluded from the replication target count.
	cached []*Pilot
	// Err records the failure cause for StateFailed.
	Err error
}

// Name returns the logical object name.
func (du *Unit) Name() string { return du.Desc.Name }

// SizeBytes returns the dataset size.
func (du *Unit) SizeBytes() int64 { return du.Desc.SizeBytes }

// State returns the unit state.
func (du *Unit) State() UnitState { return du.state }

// Manager returns the owning manager.
func (du *Unit) Manager() *Manager { return du.mgr }

// Replicas returns the data pilots holding a managed replica, in
// placement order. Opportunistic cached copies are not included; see
// CachedOn.
func (du *Unit) Replicas() []*Pilot {
	out := make([]*Pilot, len(du.replicas))
	copy(out, du.replicas)
	return out
}

// ReplicaOn reports whether dp holds a readable copy of the unit —
// a managed replica or an opportunistic cached one.
func (du *Unit) ReplicaOn(dp *Pilot) bool {
	if dp == nil {
		return false
	}
	for _, r := range du.replicas {
		if r == dp {
			return true
		}
	}
	for _, r := range du.cached {
		if r == dp {
			return true
		}
	}
	return false
}

// CachedOn reports whether dp holds an opportunistic cached copy
// (Manager.CacheReplica) — readable, but outside the replication
// target.
func (du *Unit) CachedOn(dp *Pilot) bool {
	for _, r := range du.cached {
		if r == dp {
			return true
		}
	}
	return false
}

// dropPilot removes dp from the unit's replica and cache lists without
// touching the store (the store is gone — FailPilot's case). It reports
// whether the unit held anything there.
func (du *Unit) dropPilot(dp *Pilot) bool {
	dropped := false
	keep := du.replicas[:0]
	for _, r := range du.replicas {
		if r == dp {
			dropped = true
			continue
		}
		keep = append(keep, r)
	}
	du.replicas = keep
	keepC := du.cached[:0]
	for _, r := range du.cached {
		if r == dp {
			dropped = true
			continue
		}
		keepC = append(keepC, r)
	}
	du.cached = keepC
	return dropped
}

// dropCachedOn removes dp from the unit's cached list only — the
// replica-cache eviction path; deleting the store object and the
// pilot's LRU entry is the caller's business.
func (du *Unit) dropCachedOn(dp *Pilot) {
	keep := du.cached[:0]
	for _, r := range du.cached {
		if r != dp {
			keep = append(keep, r)
		}
	}
	du.cached = keep
}

// promoteCached turns the unit's first cached copy into a managed
// replica — the bytes already exist, so durability is restored for
// free. The holding pilot's replica-cache LRU forgets the object:
// promoted copies are replicas now and must never be evicted.
func (du *Unit) promoteCached() {
	dp := du.cached[0]
	du.cached = du.cached[1:]
	dp.cached.Remove(du.Name())
	du.replicas = append(du.replicas, dp)
	du.mgr.recordReplica(du, dp, "promote")
}

// OnStateChange registers fn to run for every state the unit actually
// enters from now on, in registration order, synchronously at the
// transition's virtual time. If the unit has already left StateNew, fn
// is additionally invoked once, immediately, with the current state, so
// a late subscriber cannot miss a final state.
func (du *Unit) OnStateChange(fn UnitCallback) {
	du.watch.Subscribe(func(st UnitState) { fn(du, st) })
	if du.state != StateNew {
		fn(du, du.state)
	}
}

// Wait blocks p until the unit reaches a final state. Final states are
// the largest UnitState values, so this is an indexed threshold wait.
func (du *Unit) Wait(p *sim.Proc) UnitState {
	du.watch.AwaitMin(p, du.state, StateDone)
	return du.state
}

// WaitState blocks p until the unit reaches the given state (or a final
// state, to avoid waiting forever on failed staging). It reports whether
// the unit actually passed through the awaited state.
func (du *Unit) WaitState(p *sim.Proc, st UnitState) bool {
	du.watch.AwaitMin(p, du.state, min(st, StateDone))
	_, reached := du.Timestamp(st)
	return reached
}

// Timestamp reports when the unit entered st, and whether it ever did:
// states skipped on a failure path report false.
func (du *Unit) Timestamp(st UnitState) (sim.Duration, bool) {
	if uint(st) >= numStates || du.reached&(1<<st) == 0 {
		return 0, false
	}
	return du.Timestamps[st], true
}

// stamp records entering st now.
func (du *Unit) stamp(st UnitState) {
	du.Timestamps[st] = du.mgr.eng.Now()
	du.reached |= 1 << st
}

// WaitReady blocks p until the unit is readable — replicated and not yet
// removed — or has reached a final state, and reports readability.
// Compute staging waits here so stage-in never reads a half-staged
// replica.
func (du *Unit) WaitReady(p *sim.Proc) bool {
	du.watch.AwaitMin(p, du.state, StateReplicated)
	return du.state == StateReplicated
}

// advance moves the unit into st (forward only, never past a final
// state).
func (du *Unit) advance(st UnitState) {
	if du.state.Final() || st <= du.state {
		return
	}
	du.enter(st, "")
}

// enter is the unit's one state-entry path: it sets and stamps st,
// records it (with detail) to the manager's flight recorder when one is
// attached, frees the unit's name in the manager on a final state, and
// fires callbacks and wakes waiters.
func (du *Unit) enter(st UnitState, detail string) {
	du.state = st
	du.stamp(st)
	if r := du.mgr.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindDataState, Data: du.ID, Name: du.Name(),
			State: st.String(), Bytes: du.Desc.SizeBytes, Detail: detail})
	}
	if names := du.mgr.names; st.Final() && names[du.Name()] == du {
		delete(names, du.Name())
	}
	du.watch.Entered(st)
}

// fail moves the unit to StateFailed with a cause.
func (du *Unit) fail(err error) {
	if du.state.Final() {
		return
	}
	du.Err = err
	du.enter(StateFailed, err.Error())
}
