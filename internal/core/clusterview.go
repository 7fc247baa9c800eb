package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/sim"
)

// ClusterView is the one coherent picture of the cluster every placement
// decision consumes — the placement fabric. Before it existed, the three
// decision layers each rebuilt a partial view of their own: the
// Unit-Manager's demand() counted cores but not bytes, autoscale
// policies could not see data stores, and the data manager could not see
// queue pressure. A ClusterView spans all of it: per-pilot capacity,
// waiting and running cores, the attached data store's occupancy, and
// the input bytes parked behind the manager's waiting units.
//
// Each UnitManager owns exactly one view for its whole life:
// NewUnitManager creates it and AddPilot appends the pilot's PilotView,
// and every read refreshes that same view in place — no read allocates.
// The manager-wide and per-pilot counts are copied from running sums
// maintained incrementally on every unit transition, and the copy is
// memoized behind the manager's scheduling-event generation counter, so
// back-to-back reads (an autoscaler tick firing right after a bind
// pass) skip it; the cheap, live-changing probes (pilot state,
// capacity, data-store bytes) are refreshed on every call, at a cost
// that does not grow with the session's history. Because the view is
// shared and refreshed in place, it is valid only until the next
// scheduling event: consumers read it synchronously and re-request
// rather than retain it — a retained pointer silently shows whatever
// the latest read refreshed it to.
type ClusterView struct {
	// Now is the virtual time the view was (re)read.
	Now sim.Duration
	// Pilots holds one view per registered pilot, in registration order,
	// including pilots that have reached a final state (their State says
	// so) — callers that only want live pilots filter on State.Final().
	Pilots []*PilotView
	// WaitingUnits/WaitingCores count units submitted but not yet
	// executing — parked in the manager plus bound but still queued or in
	// agent scheduling/staging; RunningUnits/RunningCores count executing
	// units. These are the manager-wide totals the autoscaler's demand
	// signal is built from.
	WaitingUnits, WaitingCores int
	RunningUnits, RunningCores int
	// HeldUnits/HeldCores count units parked in UnitPendingInput — work
	// whose input Data-Units have not replicated yet. They are demand
	// that exists but cannot run, split out of the Waiting counts so
	// autoscale policies do not grow capacity for units no pilot could
	// start; they join Waiting once their inputs replicate.
	HeldUnits, HeldCores int
	// Cache is the result cache's snapshot (WithResultCache): hit,
	// miss, coalesce and eviction counters plus the in-flight gauges.
	// Coalesced waiters parked in UnitPendingResult are deliberately
	// invisible to the Waiting and Held counts — they represent work
	// already executing once, not demand for more capacity — so this is
	// where they surface. Enabled is false on managers without a cache.
	Cache CacheSnapshot

	byPilot map[*Pilot]*PilotView
}

// PilotView is one pilot's slice of the ClusterView.
type PilotView struct {
	// Pilot is the viewed pilot; State its state at read time.
	Pilot *Pilot
	State PilotState
	// Nodes is the pilot's current allocation (Pilot.Capacity());
	// CoresPerNode the machine's per-node core count.
	Nodes, CoresPerNode int
	// TotalCores estimates the pilot's core capacity (pilotCoreCapacity):
	// the connected YARN cluster's vcores on a pilot with a YARN agent,
	// and Nodes × CoresPerNode otherwise — both track elastic resizes.
	// Zero means the capacity is unknown.
	TotalCores int
	// InFlightUnits counts units bound to the pilot that have not yet
	// reached a final state; InFlightCores is their summed core demand.
	InFlightUnits, InFlightCores int
	// DoneUnits and FailedUnits are the pilot's lifetime completion
	// counters — units bound here that reached DONE, or FAILED/CANCELED.
	// Always-on and O(1) per transition, so accounting costs nothing
	// when no recorder or registry is attached.
	DoneUnits, FailedUnits int64
	// WaitingUnits/WaitingCores are the bound-but-not-yet-executing part
	// of the in-flight load; RunningUnits/RunningCores the executing part.
	WaitingUnits, WaitingCores int
	RunningUnits, RunningCores int
	// DataPilot is the attached Data-Pilot, nil when none is attached.
	// DataUsedBytes and DataCapacityBytes describe its store's occupancy
	// and configured bound (0 = unbounded).
	DataPilot                        *data.Pilot
	DataUsedBytes, DataCapacityBytes int64
	// PendingInputBytes totals the Inputs bytes of the manager's waiting
	// units whose replicas the attached store holds — the demand signal
	// the data-aware autoscale policy grows on.
	PendingInputBytes int64
}

// FreeCores is TotalCores minus the cores already in flight.
func (pv *PilotView) FreeCores() int { return pv.TotalCores - pv.InFlightCores }

// DataFreeBytes is the attached store's remaining capacity: -1 for an
// unbounded store, 0 when no data pilot is attached.
func (pv *PilotView) DataFreeBytes() int64 {
	if pv.DataPilot == nil {
		return 0
	}
	if pv.DataCapacityBytes <= 0 {
		return -1
	}
	return pv.DataCapacityBytes - pv.DataUsedBytes
}

// InputBytes sums the bytes of the unit's Data-Unit inputs whose
// replicas the pilot's attached data pilot holds — the co-location
// signal the data-affinity schedulers place by.
func (pv *PilotView) InputBytes(u *Unit) int64 {
	return inputBytesOnPilot(pv.DataPilot, u)
}

// inputBytesOnPilot is the shared probe behind PilotView.InputBytes and
// hand-built Candidates.
func inputBytesOnPilot(dp *data.Pilot, u *Unit) int64 {
	if dp == nil {
		return 0
	}
	var total int64
	for _, ref := range u.Desc.Inputs {
		if ref.Unit != nil && ref.Unit.ReplicaOn(dp) {
			total += ref.Unit.SizeBytes()
		}
	}
	return total
}

// For returns the view of pl, or nil when pl is not registered with the
// manager that assembled the view.
func (v *ClusterView) For(pl *Pilot) *PilotView { return v.byPilot[pl] }

// HottestDataPilot returns the view of the live pilot whose attached
// data store holds the most bytes behind the waiting units' Inputs, nil
// when no live pilot holds any. Ties resolve to registration order, so
// the answer is deterministic.
func (v *ClusterView) HottestDataPilot() *PilotView {
	var best *PilotView
	for _, pv := range v.Pilots {
		if pv.State.Final() || pv.PendingInputBytes == 0 {
			continue
		}
		if best == nil || pv.PendingInputBytes > best.PendingInputBytes {
			best = pv
		}
	}
	return best
}

// bumpGen invalidates the memoized counts; it runs on every scheduling
// event (kick, submission, pilot added) and on every unit state change.
func (um *UnitManager) bumpGen() { um.gen++ }

// ClusterView refreshes the manager's one cluster snapshot in place —
// its counts when a scheduling event happened since the last read, its
// live probes always — and returns it. The refresh is the bind-hot-path
// cost BenchmarkClusterView guards.
func (um *UnitManager) ClusterView() *ClusterView {
	v := um.ensureView()
	um.refreshView(v)
	return v
}

// ensureView returns the manager's view with its counts current,
// re-copying them only when the generation counter moved — the fix for
// demand() recounting on autoscaler ticks where nothing changed.
func (um *UnitManager) ensureView() *ClusterView {
	if um.viewGen != um.gen {
		um.buildView()
		um.viewGen = um.gen
	}
	return um.view
}

// trackPilot gives a newly registered pilot its in-flight load and its
// slot in the manager's view.
func (um *UnitManager) trackPilot(pl *Pilot) {
	um.pilots = append(um.pilots, pl)
	um.load[pl] = &pilotLoad{}
	pv := &PilotView{Pilot: pl}
	um.view.Pilots = append(um.view.Pilots, pv)
	um.view.byPilot[pl] = pv
}

// buildView copies the manager's running sums into its view in place —
// O(pilots), no unit walk, no allocation. The sums are maintained as
// deltas by setAcct (and the park index's aggregates) on every unit
// transition; debugViewAudit re-derives them by full walk and
// cross-checks.
func (um *UnitManager) buildView() {
	v := um.view
	for _, pv := range v.Pilots {
		ld := um.load[pv.Pilot]
		pv.InFlightUnits, pv.InFlightCores = ld.units, ld.cores
		pv.DoneUnits, pv.FailedUnits = ld.done, ld.failed
		pv.WaitingUnits, pv.WaitingCores = ld.waitingUnits, ld.waitingCores
		pv.RunningUnits, pv.RunningCores = ld.runningUnits, ld.runningCores
	}
	v.WaitingUnits = um.park.units + um.park.asideUnits - um.hiddenUnits + um.boundWaitingUnits
	v.WaitingCores = um.park.cores + um.park.asideCores - um.hiddenCores + um.boundWaitingCores
	v.RunningUnits, v.RunningCores = um.runningUnits, um.runningCores
	v.HeldUnits, v.HeldCores = um.heldUnits, um.heldCores
	if debugViewAudit {
		um.auditView(v)
	}
}

// debugViewAudit turns on the full-walk cross-check of the incremental
// accounting inside buildView. Tests flip it; production reads stay
// O(pilots).
var debugViewAudit = false

// auditView re-derives the view's counts the pre-incremental way — a
// full walk over the park index, the held map and the charged map — and
// panics on any mismatch with the running sums.
func (um *UnitManager) auditView(v *ClusterView) {
	var waitU, waitC, runU, runC, heldU, heldC int
	um.park.forEachUnit(func(u *Unit) {
		if um.hiding && u.parkSeq < um.hideBoundary {
			return // in the running pass's batch: hidden, like the old detach
		}
		waitU++
		waitC += u.Desc.Cores
	})
	for u := range um.held {
		if u.State() != UnitPendingInput {
			continue
		}
		heldU++
		heldC += u.Desc.Cores
	}
	for u := range um.charged {
		switch st := u.State(); {
		case st.Final():
		case st < UnitExecuting:
			waitU++
			waitC += u.Desc.Cores
		default:
			runU++
			runC += u.Desc.Cores
		}
	}
	if waitU != v.WaitingUnits || waitC != v.WaitingCores ||
		runU != v.RunningUnits || runC != v.RunningCores ||
		heldU != v.HeldUnits || heldC != v.HeldCores {
		panic(fmt.Sprintf("core: incremental view drift: walk says waiting %d/%d running %d/%d held %d/%d, sums say %d/%d %d/%d %d/%d",
			waitU, waitC, runU, runC, heldU, heldC,
			v.WaitingUnits, v.WaitingCores, v.RunningUnits, v.RunningCores, v.HeldUnits, v.HeldCores))
	}
}

// refreshProbes re-reads the cheap per-pilot live probes — pilot state,
// capacity (a YARN pilot's live NodeManager vcores), attached stores —
// and reports whether any pilot has a live attached store. These change
// outside the manager's event stream (a resize completing, a replica
// staging), so every consumer re-probes rather than trusting the
// memoized counts; the bind loop calls this before each offer. It
// allocates nothing and costs O(pilots × NodeManagers), independent of
// how many units or YARN applications have run.
func (um *UnitManager) refreshProbes(v *ClusterView) bool {
	anyData := false
	for _, pv := range v.Pilots {
		pl := pv.Pilot
		pv.State = pl.State()
		pv.Nodes = pl.Capacity()
		pv.CoresPerNode = 0
		if res := pl.Resource(); res != nil && res.Machine != nil {
			pv.CoresPerNode = res.Machine.Spec.Node.Cores
		}
		pv.TotalCores = pilotCoreCapacity(pl)
		pv.DataPilot = pl.DataPilot()
		if pv.DataPilot != nil && pv.DataPilot.Failed() {
			pv.DataPilot = nil // a killed store holds nothing to place by
		}
		pv.DataUsedBytes, pv.DataCapacityBytes, pv.PendingInputBytes = 0, 0, 0
		if dp := pv.DataPilot; dp != nil {
			st := dp.Store()
			pv.DataUsedBytes = st.UsedBytes()
			pv.DataCapacityBytes = st.CapacityBytes()
			anyData = true
		}
	}
	return anyData
}

// refreshView is the full refresh behind the public ClusterView: the
// per-pilot probes plus the per-pilot pending input bytes, re-walked
// over the current waiting units (parked — minus a running pass's
// hidden batch — and bound-but-not-executing).
func (um *UnitManager) refreshView(v *ClusterView) {
	v.Now = um.session.eng.Now()
	v.Cache = CacheSnapshot{}
	if um.rc != nil {
		v.Cache = CacheSnapshot{Enabled: true, Stats: um.rc.Stats()}
	}
	if !um.refreshProbes(v) {
		return // no attached stores: every PendingInputBytes is trivially 0
	}
	addInputs := func(u *Unit) {
		for _, ref := range u.Desc.Inputs {
			if ref.Unit == nil {
				continue
			}
			for _, pv := range v.Pilots {
				if pv.DataPilot != nil && ref.Unit.ReplicaOn(pv.DataPilot) {
					pv.PendingInputBytes += ref.Unit.SizeBytes()
				}
			}
		}
	}
	um.park.forEachUnit(func(u *Unit) {
		if um.hiding && u.parkSeq < um.hideBoundary {
			return
		}
		addInputs(u)
	})
	for u := range um.charged {
		if u.acct == acctBoundWaiting {
			addInputs(u)
		}
	}
}
