package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Unit is a Compute-Unit: a self-contained piece of work submitted
// through the Unit-Manager and executed by a Pilot-Agent.
type Unit struct {
	ID   string
	Desc ComputeUnitDescription
	// um is the manager that submitted the unit; enter hands it every
	// transition before any subscriber (see UnitManager.unitEntered).
	um *UnitManager

	state UnitState
	watch sim.Notifier[UnitState]
	// Timestamps records when each state was entered, indexed by state;
	// the entry of a state the unit never entered is zero. Timestamp
	// reports whether a state was reached.
	Timestamps [numUnitStates]sim.Duration

	// Pilot is the pilot the Unit-Manager bound this unit to. It is nil
	// before the first binding and between a pilot's death and the
	// failover rebinding.
	Pilot *Pilot
	// Err records the failure cause for UnitFailed.
	Err error

	// acct is the unit's ledger phase and acctView the pilot row of the
	// manager's ClusterView it is counted in (bound phases only); setAcct
	// is their only writer. unresolved counts the unreplicated inputs a
	// held unit still waits for. reached has bit st set once st was
	// entered. The three small fields share one word.
	acct       acctPhase
	reached    uint16
	unresolved int32
	acctView   *PilotView
}

// acctPhase is a unit's phase in the Unit-Manager's ledger — the one
// in-flight record every view, candidate and demand() read derives
// from; see setAcct. Phases from acctHeld on are live: the manager's
// live set holds exactly those units.
type acctPhase uint8

const (
	// acctNone: not counted anywhere — before submission bookkeeping,
	// after a final state, or invisible by design (cache-coalesced
	// waiters in UnitPendingResult).
	acctNone acctPhase = iota
	// acctParked: in the park index awaiting (re)binding. The index's
	// own aggregates carry the counts; the phase only records
	// membership.
	acctParked
	// acctHeld: parked in UnitPendingInput behind unreplicated inputs.
	acctHeld
	// acctBoundWaiting: bound to a pilot but not yet executing.
	acctBoundWaiting
	// acctRunning: executing on its pilot.
	acctRunning
)

// State returns the unit state.
func (u *Unit) State() UnitState { return u.state }

// OnStateChange registers fn to run for every state the unit actually
// enters from now on, in registration order, synchronously at the
// transition's virtual time. States skipped on failure paths (a unit
// failing in scheduling never reports UnitExecuting) are not reported.
// If the unit has already left UnitNew, fn is additionally invoked once,
// immediately, with the current state, so a late subscriber cannot miss
// a final state.
func (u *Unit) OnStateChange(fn UnitCallback) {
	u.watch.Subscribe(func(st UnitState) { fn(u, st) })
	if u.state != UnitNew {
		fn(u, u.state)
	}
}

// Wait blocks p until the unit reaches a final state. Final states are
// the largest UnitState values, so this is a threshold wait — indexed,
// not scanned, no matter how many units park here.
func (u *Unit) Wait(p *sim.Proc) UnitState {
	u.watch.AwaitMin(p, u.state, UnitDone)
	return u.state
}

// Timestamp reports when the unit entered st, and whether it ever did:
// states skipped on a failure path report false.
func (u *Unit) Timestamp(st UnitState) (sim.Duration, bool) {
	if uint(st) >= numUnitStates || u.reached&(1<<st) == 0 {
		return 0, false
	}
	return u.Timestamps[st], true
}

// stamp records entering st now.
func (u *Unit) stamp(st UnitState) {
	u.Timestamps[st] = u.um.session.eng.Now()
	u.reached |= 1 << st
}

// StartupTime is the paper's Figure 5 inset metric: submission to
// executable start. Valid once the unit has reached UnitExecuting.
func (u *Unit) StartupTime() sim.Duration {
	return u.Timestamps[UnitExecuting] - u.Timestamps[UnitSchedulingUM]
}

// TimeToCompletion is submission to final state.
func (u *Unit) TimeToCompletion() sim.Duration {
	if !u.state.Final() {
		return 0
	}
	return u.Timestamps[u.state] - u.Timestamps[UnitSchedulingUM]
}

// advance moves the unit into st (skipping forward is allowed on failure
// paths; moving backwards or past a final state is not). Only the
// reached state gets a timestamp and fires callbacks; waiters parked on
// skipped states are woken by the reached state.
func (u *Unit) advance(st UnitState) {
	if u.state.Final() || st <= u.state {
		return
	}
	u.enter(st, "")
}

// enter is the unit's one state-entry path: it sets and stamps st,
// records it (with detail) to the session's flight recorder when one is
// attached — the nil check is the only cost paid without one — runs the
// submitting manager's hook, then fires callbacks and wakes waiters.
func (u *Unit) enter(st UnitState, detail string) {
	u.state = st
	u.stamp(st)
	if r := u.um.session.rec; r != nil {
		ev := obs.Event{
			Kind: obs.KindUnitState, Unit: u.ID, Name: u.Desc.Name,
			State: st.String(), Cores: u.Desc.Cores, Detail: detail,
		}
		if u.Pilot != nil {
			ev.Pilot = u.Pilot.ID
		}
		r.Record(ev)
	}
	u.um.unitEntered(u, st)
	u.watch.Entered(st)
}

// fail moves the unit to UnitFailed with a cause, waking every parked
// waiter; callbacks fire for UnitFailed only, never for the skipped
// intermediate states.
func (u *Unit) fail(err error) {
	if u.state.Final() {
		return
	}
	u.Err = err
	u.enter(UnitFailed, err.Error())
}

// cancel moves the unit to UnitCanceled, waking every parked waiter.
func (u *Unit) cancel() {
	if u.state.Final() {
		return
	}
	u.enter(UnitCanceled, "")
}

// UnitManager binds Compute-Units to pilots and dispatches them through
// the coordination store (paper Figure 3, steps U.1–U.7).
//
// Since v2 the binding decision is delegated to a pluggable
// UnitScheduler (see WithScheduler and RegisterUnitScheduler), and the
// manager runs a bind loop instead of pushing eagerly at Submit: units a
// policy defers park in a manager-level queue and are retried on every
// scheduling event (pilot state change, unit completion, new pilot).
// Units bound to a pilot that reaches a final state while they still
// wait in the coordination store (before its agent picked them up) are
// rebound to the surviving pilots — fault-tolerant failover, under
// every policy; units the agent already started processing are canceled
// with the pilot.
type UnitManager struct {
	session *Session
	policy  UnitScheduler

	// view is the manager's one ClusterView, refreshed in place; its
	// Pilots are the registered pilots' rows, in registration order. Its
	// per-pilot rows and Held counts are the in-flight ledger itself:
	// setAcct writes them on every unit transition. live holds the units
	// in a live phase (held, bound-waiting, running) — the set failover,
	// the pending-input-byte walk and the audit visit; parked units stay
	// out of it, the park index owns them.
	view *ClusterView
	live map[*Unit]struct{}

	// park indexes the units awaiting (re)binding by (priority,
	// submission order) and, for capacity-gated policies, by core
	// demand — the structure that lets a pass re-offer only what the
	// cluster could admit instead of the whole backlog.
	park parkIndex
	// policyGated records whether the policy implements CapacityGated:
	// its parked units re-offer only when admissible. fullReoffer forces
	// the next pass to offer every parked unit regardless (set on pilot
	// topology/state events, which can change admissibility and
	// ErrUnschedulable answers); pilotGen invalidates the pass's cached
	// candidate set on those same events.
	policyGated bool
	fullReoffer bool
	pilotGen    uint64
	cands       passCands
	// rc is the content-addressed result cache (WithResultCache), nil
	// without the option — the nil check is the only cost the cache adds
	// to an unconfigured manager. rcKeys maps each in-flight leader unit
	// to the key its completion will settle.
	rc     *cache.ResultCache[cachedResult, *Unit]
	rcKeys map[*Unit]cache.Key
	// wake signals the bind loop; kicks coalesce while a pass runs.
	wake *sim.Queue[struct{}]
	// observers run on every scheduling event (submission, unit
	// completion, pilot state change) — the hook the Autoscaler's
	// control loop hangs off.
	observers []func()
	// passing marks a scheduling pass in flight (its store round trips
	// block in virtual time); rerun asks it to go around once more, and
	// passDone, made by the first process that waits for the pass, wakes
	// the waiters when it retires.
	passing  bool
	rerun    bool
	passDone *sim.Event

	// gen counts scheduling events and unit state changes; sampleGen is
	// the generation the flight recorder last sampled gauges at: one
	// gauge reading per generation, not per kick.
	gen       uint64
	sampleGen uint64

	// passes counts completed schedule-pass batches and offered the
	// units handed to the policy across them (a unit re-offered by a
	// later pass counts again) — the bind loop's raw work measure, which
	// the scale sweep reports as rescan cost.
	passes  int64
	offered int64
}

// setAcct moves u to ledger phase phase, counted in the pilot row pv
// (bound phases only). It is the only code that mutates in-flight
// counts: it moves the unit's demand between the view's Held counts and
// its pilot rows' Waiting/Running counts and keeps the live set, so
// every transition path (submit, hold, release, bind, execute, final)
// stays balanced by construction.
// The auditView cross-check re-derives the counts by full walk in tests.
func (um *UnitManager) setAcct(u *Unit, phase acctPhase, pv *PilotView) {
	if u.acct == phase && u.acctView == pv {
		return
	}
	wasLive := u.acct >= acctHeld
	um.count(u, -1)
	u.acct, u.acctView = phase, pv
	um.count(u, 1)
	switch isLive := phase >= acctHeld; {
	case isLive && !wasLive:
		um.live[u] = struct{}{}
	case wasLive && !isLive:
		delete(um.live, u)
	}
}

// count adds sign times u's demand to the ledger row its phase occupies;
// parked units are counted by the park index instead.
func (um *UnitManager) count(u *Unit, sign int) {
	cores := sign * u.Desc.Cores
	switch u.acct {
	case acctHeld:
		um.view.HeldUnits += sign
		um.view.HeldCores += cores
	case acctBoundWaiting:
		u.acctView.WaitingUnits += sign
		u.acctView.WaitingCores += cores
	case acctRunning:
		u.acctView.RunningUnits += sign
		u.acctView.RunningCores += cores
	}
}

// enqueueUnit parks u in the bind queue. gated routes policy re-parks
// into the capacity-indexed tier; fresh arrivals always enter the must
// tier so their first offer can still bind, park, or fail them.
func (um *UnitManager) enqueueUnit(u *Unit, gated bool) {
	um.setAcct(u, acctParked, nil)
	um.park.push(u, gated)
}

// UnitManagerOption configures a UnitManager built by NewUnitManager.
type UnitManagerOption func(*umConfig)

type umConfig struct {
	scheduler        string
	resultCache      bool
	resultCacheBytes int64
}

// WithScheduler selects the manager's unit-scheduling policy by
// registered name (default: SchedulerRoundRobin). NewUnitManager fails
// with ErrUnknownScheduler for names never registered.
func WithScheduler(name string) UnitManagerOption {
	return func(c *umConfig) { c.scheduler = name }
}

// NewUnitManager creates a unit manager on the session.
func NewUnitManager(s *Session, opts ...UnitManagerOption) (*UnitManager, error) {
	cfg := umConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	policy, err := newUnitScheduler(cfg.scheduler)
	if err != nil {
		return nil, err
	}
	um := &UnitManager{
		session: s,
		policy:  policy,
		view:    &ClusterView{byPilot: make(map[*Pilot]*PilotView)},
		live:    make(map[*Unit]struct{}),
		wake:    sim.NewQueue[struct{}](s.eng),
	}
	_, um.policyGated = policy.(CapacityGated)
	um.cands.um = um
	if cfg.resultCache {
		um.rc = cache.NewResultCache[cachedResult, *Unit](cfg.resultCacheBytes)
		um.rcKeys = make(map[*Unit]cache.Key)
	}
	s.nextUM++
	s.eng.SpawnDaemon(fmt.Sprintf("umgr:%02d", s.nextUM), um.bindLoop)
	return um, nil
}

// Scheduler returns the manager's unit-scheduling policy name.
func (um *UnitManager) Scheduler() string { return um.policy.Name() }

// Session returns the session the manager was built on — the path
// sibling subsystems (the UnitGraph) reach the session's flight
// recorder through.
func (um *UnitManager) Session() *Session { return um.session }

// AddPilot registers a pilot as an execution target and hooks its state
// transitions into the bind loop: a pilot becoming Active can unblock
// late-binding policies, and a pilot reaching a final state triggers
// failover rebinding of its still-queued units.
func (um *UnitManager) AddPilot(pl *Pilot) error {
	if pl == nil {
		return fmt.Errorf("core: nil pilot")
	}
	if um.view.For(pl) != nil {
		return fmt.Errorf("core: pilot %s already added", pl.ID)
	}
	um.trackPilot(pl)
	um.pilotGen++
	um.fullReoffer = true
	um.bumpGen()
	pl.OnStateChange(func(pl *Pilot, st PilotState) {
		// Pilot topology/state events can change what is admissible and
		// what is forever unschedulable: invalidate the cached candidate
		// set and force the next pass to re-offer everything once.
		um.pilotGen++
		um.fullReoffer = true
		if st.Final() {
			um.rebindOrphans(pl)
		}
		um.kick()
	})
	return nil
}

// kick wakes the bind loop; kicks coalesce (at most one wake buffered).
// Observers are notified on every kick.
func (um *UnitManager) kick() {
	if um.wake.Len() == 0 {
		um.wake.Put(struct{}{})
	}
	um.notifyObservers()
}

// observe registers fn to run on every scheduling event the manager
// sees: unit submission, unit completion, pilot state changes. The
// Autoscaler wires its control loop here.
func (um *UnitManager) observe(fn func()) {
	um.observers = append(um.observers, fn)
}

func (um *UnitManager) notifyObservers() {
	um.bumpGen()
	for _, fn := range um.observers {
		fn()
	}
	if !um.passing {
		// Gauge samples batch per pass iteration (schedulePass samples
		// after each one) instead of per kick — a pass binding thousands
		// of units kicks thousands of times but the series only needs
		// the settled points.
		um.sampleGauges()
	}
}

// sampleGauges appends one live-gauge reading to the attached flight
// recorder's series per scheduling-event generation — after observers
// (the autoscaler) ran, so their effects land in the same tick. Without
// a recorder the cost is one nil check.
func (um *UnitManager) sampleGauges() {
	r := um.session.rec
	if r == nil || um.sampleGen == um.gen {
		return
	}
	um.sampleGen = um.gen
	v := um.ClusterView()
	g := obs.GaugeSample{
		QueueDepth:   v.WaitingUnits,
		WaitingCores: v.WaitingCores,
		HeldUnits:    v.HeldUnits,
		HeldCores:    v.HeldCores,
		RunningUnits: v.RunningUnits,
		RunningCores: v.RunningCores,
	}
	if v.Cache.Enabled {
		g.CacheEntries = v.Cache.Entries
		g.CacheBytes = v.Cache.UsedBytes
	}
	for _, pv := range v.Pilots {
		if pv.State.Final() {
			continue
		}
		g.TotalCores += pv.TotalCores
		if dp := pv.DataPilot; dp != nil {
			if g.StoreFree == nil {
				g.StoreFree = make(map[string]int64)
			}
			g.StoreFree[dp.Label()] = pv.DataFreeBytes()
		}
	}
	if g.TotalCores > 0 {
		g.Utilization = float64(g.RunningCores) / float64(g.TotalCores)
	}
	r.Sample(g)
}

// demand summarizes the manager's current workload for autoscaling:
// units not yet executing (parked in the manager plus bound but still
// queued or in agent scheduling/staging-in) and units currently
// executing, with their summed core demands — the manager-wide totals
// of its view, summed over the pilot rows in O(pilots).
func (um *UnitManager) demand() (waitingUnits, waitingCores, runningUnits, runningCores int) {
	v := um.sumTotals()
	return v.WaitingUnits, v.WaitingCores, v.RunningUnits, v.RunningCores
}

// bindLoop is the manager's scheduling daemon: it re-runs the scheduling
// pass on every kick (pilot state change, unit completion, new pilot),
// binding parked units and failing the hopeless ones.
func (um *UnitManager) bindLoop(p *sim.Proc) {
	for {
		um.wake.Get(p)
		um.schedulePass(p)
	}
}

// schedulePass offers the offerable part of the parked backlog to the
// policy. Passes are single-flight: a pass requested while one runs
// (whose store round trips block in virtual time) first asks the
// running pass to go around again, then blocks until it retires — so
// when Submit's pass call returns, every unit submitted before it has
// been offered to the policy (eager policies: bound), no matter which
// process placed it.
//
// Each iteration drains a batch: the park entries stamped before the
// iteration began, best (priority, submission order) first off the
// heaps. Under a CapacityGated policy, gated classes whose core demand
// no Active pilot can admit are never popped: their entries keep their
// stamps and FIFO places, so a full cluster with a gated backlog costs
// a pass only the units it offers. fullReoffer iterations (pilot
// topology/state events) re-offer everything so admissibility and
// ErrUnschedulable answers stay current. Units the policy re-parks, and
// entries stamped mid-iteration, go aside until the iteration ends;
// until then the batch's unoffered remainder, skipped classes included,
// is hidden from views, exactly as the old detached batch slice was.
func (um *UnitManager) schedulePass(p *sim.Proc) {
	for um.passing {
		um.rerun = true
		if um.passDone == nil {
			um.passDone = sim.NewEvent(um.session.eng)
		}
		p.Wait(um.passDone)
	}
	um.passing = true
	defer func() {
		um.passing = false
		if ev := um.passDone; ev != nil {
			um.passDone = nil
			ev.Trigger()
		}
	}()
	for {
		um.rerun = false
		um.passes++
		full := um.fullReoffer || !um.policyGated
		um.fullReoffer = false
		um.park.beginBatch()
		um.bumpGen()
		um.runBatch(p, full)
		um.park.endBatch()
		um.bumpGen()
		um.sampleGauges()
		if !um.rerun {
			return
		}
	}
}

// runBatch drains one iteration's batch through the policy, popping
// only must entries and the gated classes admit accepts (all of them on
// full iterations).
func (um *UnitManager) runBatch(p *sim.Proc, full bool) {
	admit := func(cores int) bool { return full || um.cands.admits(cores) }
	for {
		um.cands.ensure()
		e, ok := um.park.popBest(admit)
		if !ok {
			return // nothing left that could bind
		}
		if e.seq >= um.park.boundary {
			// Stamped mid-iteration (policy re-park, released input,
			// failover orphan): next iteration's work.
			um.park.setAside(e)
			continue
		}
		if e.u.State().Final() || e.u.acct != acctParked {
			continue // went final while parked: drop the stale entry
		}
		um.offerOne(p, e.u)
	}
}

// offerOne runs the policy for one unit: bind, park, or fail.
func (um *UnitManager) offerOne(p *sim.Proc, u *Unit) {
	um.offered++
	pc := &um.cands
	if len(pc.list) == 0 {
		u.fail(fmt.Errorf("core: unit %s: %w among %d registered", u.ID, ErrNoLivePilot, len(um.view.Pilots)))
		return
	}
	pl, err := um.policy.Pick(p, u, pc.list)
	if err != nil {
		u.fail(fmt.Errorf("core: unit %s: %w", u.ID, err))
		return
	}
	if pl == nil {
		// Deferred (late binding): park until the next scheduling event.
		um.parkAgain(u)
		um.bumpGen()
		return
	}
	pv := um.view.For(pl)
	if pv == nil || !slices.Contains(pc.list, pv) {
		// A (custom) policy returned a pilot outside the candidates it
		// was offered — foreign, or already final before the pass: fail
		// the unit rather than corrupt bookkeeping or retry forever.
		u.fail(fmt.Errorf("core: unit %s: scheduler %q picked pilot %s, which was not offered to it",
			u.ID, um.policy.Name(), pl.ID))
		return
	}
	if pl.State().Final() {
		// The picked pilot died while the policy blocked in virtual
		// time: park and retry with fresh candidates.
		um.parkAgain(u)
		um.kick() // bumps the generation too
		return
	}
	u.Pilot = pl
	inFlight := pv.InFlightCores() // the load the policy saw, before this bind
	um.setAcct(u, acctBoundWaiting, pv)
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{
			Kind: obs.KindBind, Unit: u.ID, Name: u.Desc.Name, Pilot: pl.ID,
			Policy: um.policy.Name(), Cores: u.Desc.Cores,
			Running: inFlight, Nodes: pv.TotalCores,
		})
	}
	u.advance(UnitPendingAgent)
	um.session.store.Push(p, pl.queueName, u)
}

// parkAgain re-parks an offered unit, stamped at its processing
// position and set aside until the current iteration ends. Gated
// policies' re-parks enter the capacity-indexed tier.
func (um *UnitManager) parkAgain(u *Unit) {
	um.setAcct(u, acctParked, nil)
	e := parkEntry{u: u, prio: u.Desc.Priority, cores: u.Desc.Cores, gated: um.policyGated}
	um.park.stamp(&e)
	if um.passing {
		um.park.setAside(e)
	} else {
		um.park.insert(e)
	}
}

// passCands is the per-pass candidate set: the manager's ClusterView
// rows of its live pilots. The set rebuilds only when the pilot
// topology or a pilot's state changed (pilotGen); the rows' live probes
// refresh before every offer, in place and without allocating.
type passCands struct {
	um       *UnitManager
	pilotGen uint64
	built    bool
	list     []*PilotView
	// maxFree is the largest admittable core demand across candidates:
	// the admission gate for capacity-indexed classes. Pilots with
	// unknown capacity admit anything, as pickAdmissible does.
	maxFree int
}

// admits reports whether some candidate could admit a unit of the given
// core demand under the pickAdmissible rule.
func (pc *passCands) admits(cores int) bool { return cores <= pc.maxFree }

// ensure refreshes the candidate set for the next offer.
func (pc *passCands) ensure() {
	um := pc.um
	if !pc.built || pc.pilotGen != um.pilotGen {
		pc.list = pc.list[:0]
		for _, pv := range um.view.Pilots {
			if !pv.Pilot.State().Final() {
				pc.list = append(pc.list, pv)
			}
		}
		pc.built = true
		pc.pilotGen = um.pilotGen
	}
	um.refreshProbes(um.sumTotals())
	pc.maxFree = 0
	for _, pv := range pc.list {
		if st := pv.State; st != PilotActive && st != PilotResizing {
			continue
		}
		switch free := pv.FreeCores(); {
		case pv.TotalCores == 0:
			pc.maxFree = int(^uint(0) >> 1) // unknown capacity admits all
		case free > pc.maxFree:
			pc.maxFree = free
		}
	}
}

// BindPassStats reports the bind loop's lifetime work: passes is the
// number of scheduling batches run, offered the units handed to the
// policy across them (re-offers count). offered/passes ≫ 1 on a
// late-binding policy is the O(N²) rescan cost the scale sweep
// characterizes.
func (um *UnitManager) BindPassStats() (passes, offered int64) {
	return um.passes, um.offered
}

// rebindOrphans moves units that were bound to the dead pilot but never
// picked up by its agent back into the pending queue. Clearing u.Pilot
// makes the dead pilot's queued copy stale (the agent-side guard drops
// it), so a unit can never run twice.
func (um *UnitManager) rebindOrphans(dead *Pilot) {
	var orphans []*Unit
	for u := range um.live {
		if pv := u.acctView; pv != nil && pv.Pilot == dead && u.State() == UnitPendingAgent {
			orphans = append(orphans, u)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID < orphans[j].ID })
	for _, u := range orphans {
		u.Pilot = nil
		// Failover rebinds enter the must tier: the next pass is a full
		// one anyway (the pilot's death set fullReoffer), and their
		// first re-offer must re-evaluate schedulability.
		um.enqueueUnit(u, false)
	}
	um.bumpGen()
}

// Submit registers the units with the manager and runs a scheduling pass
// on p (paying the store round trips for units that bind immediately,
// steps U.1–U.2). Eager policies — round-robin, least-loaded — bind
// every unit before Submit returns, as in v1; late-binding policies may
// leave units parked, to be bound by the bind loop once an eligible
// pilot is available. Units whose input Data-Units are not yet
// replicated are held in UnitPendingInput — under every policy — and
// enter the bind queue only when the last input replicates (see
// watchInputs); a unit whose input retires unread fails with
// data.ErrUnavailable instead. Under WithResultCache, cacheable units
// are first offered to the result cache: a hit completes immediately, a
// duplicate of an in-flight unit parks in UnitPendingResult, and only
// cache leaders and uncacheable units continue into the flow above.
// Submit fails with ErrNoPilots when no
// pilot was added; a unit that can never be placed fails individually
// (see ErrNoLivePilot, ErrUnschedulable) rather than failing the batch.
func (um *UnitManager) Submit(p *sim.Proc, descs []ComputeUnitDescription) ([]*Unit, error) {
	if len(um.view.Pilots) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoPilots)
	}
	units := make([]*Unit, 0, len(descs))
	for _, d := range descs {
		um.session.nextUnit++
		u := &Unit{
			ID:   seqID("unit.", um.session.nextUnit),
			Desc: d.withDefaults(),
			um:   um,
		}
		u.stamp(UnitNew)
		if um.acquireCached(p, u) {
			// Result-cache hit (completed just now, from the cached
			// result) or coalesced duplicate (parked in UnitPendingResult
			// until the in-flight leader settles): either way the unit
			// never enters the bind loop.
			units = append(units, u)
			continue
		}
		um.admit(u)
		units = append(units, u)
	}
	um.notifyObservers() // autoscalers see the new backlog
	um.schedulePass(p)
	return units, nil
}

// admit sends a unit the result cache did not take through the input
// check: it fails on an input that retired unread, holds in
// UnitPendingInput while inputs are unreplicated, and otherwise joins
// the bind queue. It returns the state the unit was sent to.
func (um *UnitManager) admit(u *Unit) UnitState {
	unresolved, err := um.watchInputs(u)
	switch {
	case err != nil:
		// An input already retired unread: the unit can never run.
		// Failing it here runs the final-state hook (unitEntered),
		// which cancels the unit's own still-new outputs — the failure
		// cascades down a dependency graph at submission time.
		u.fail(err)
		return UnitFailed
	case unresolved > 0:
		// Dependency-aware late binding: the unit is not offered to
		// the policy until every input Data-Unit is replicated. The
		// watch callbacks release (or fail) it.
		u.unresolved = int32(unresolved)
		um.setAcct(u, acctHeld, nil)
		um.recordHold(u, unresolved)
		u.advance(UnitPendingInput)
		return UnitPendingInput
	}
	u.advance(UnitSchedulingUM)
	um.enqueueUnit(u, false)
	return UnitSchedulingUM
}

// unitEntered is the manager's own hook on every state a unit it
// submitted enters. Unit.enter calls it ahead of the unit's
// OnStateChange subscribers, nested transitions included.
func (um *UnitManager) unitEntered(u *Unit, st UnitState) {
	um.bumpGen() // any transition can shift the waiting/running split
	if st == UnitExecuting {
		um.setAcct(u, acctRunning, u.acctView)
	}
	if st.Final() {
		um.setAcct(u, acctNone, nil)
		// A leader's end releases its coalesced waiters. Waiters sent
		// back to execute will produce the dead leader's declared outputs
		// themselves, so those outputs are not orphaned and must not be
		// canceled here.
		released := um.settleFlight(u, st)
		um.kick() // freed capacity may unblock parked units
		if st != UnitDone && !released {
			cancelOrphanOutputs(u)
		}
	}
}

// seqID renders a sequential entity ID, prefix plus n zero-padded to six
// digits ("unit.000042"), without fmt.
func seqID(prefix string, n int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	for w := 100000; w > 1 && n < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(n), 10))
}

// unavailableInput builds the failure cause for a unit whose input
// Data-Unit retired without ever becoming readable — the same wrap shape
// the agent's awaitInputs produces, so both paths match
// data.ErrUnavailable through errors.Is.
func unavailableInput(u *Unit, du *data.Unit, st data.UnitState) error {
	return fmt.Errorf("core: unit %s input %s: %w (%v)", u.ID, du.ID, data.ErrUnavailable, st)
}

// watchInputs inspects the unit's input Data-Units at submission: inputs
// already replicated need no watch, an input already retired fails the
// unit (the returned error), and each still-staging input registers a
// callback on the Data-Unit's state fabric — the unit is released into
// the bind queue when the last one replicates, with no polling anywhere.
// It returns the number of unresolved inputs the caller must hold the
// unit for.
func (um *UnitManager) watchInputs(u *Unit) (int, error) {
	unresolved := 0
	for _, ref := range u.Desc.Inputs {
		du := ref.Unit
		if du == nil {
			continue
		}
		st := du.State()
		if st == data.StateReplicated {
			continue // readable now; the agent re-checks at stage time
		}
		if st.Final() {
			return 0, unavailableInput(u, du, st)
		}
		unresolved++
		resolved := false
		du.OnStateChange(func(du *data.Unit, st data.UnitState) {
			// The immediate fire for a unit already StagingIn matches
			// neither branch; only future transitions resolve the input.
			switch {
			case resolved || u.State().Final():
			case st == data.StateReplicated:
				resolved = true
				um.releaseInput(u)
			case st.Final():
				resolved = true
				um.failHeld(u, unavailableInput(u, du, st))
			}
		})
	}
	return unresolved, nil
}

// releaseInput retires one resolved input of a held unit; when the last
// input replicates the unit leaves UnitPendingInput for the pending
// queue and the bind loop is kicked — the dependency-aware release path.
func (um *UnitManager) releaseInput(u *Unit) {
	if u.acct != acctHeld {
		return
	}
	if u.unresolved--; u.unresolved > 0 {
		return
	}
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindRelease, Op: "input", Unit: u.ID,
			Name: u.Desc.Name, Cores: u.Desc.Cores})
	}
	u.advance(UnitSchedulingUM)
	um.enqueueUnit(u, false)
	um.kick()
}

// recordHold emits a hold-edge event for a unit parking in
// UnitPendingInput with unresolved unreplicated inputs.
func (um *UnitManager) recordHold(u *Unit, unresolved int) {
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindHold, Op: "input", Unit: u.ID,
			Name: u.Desc.Name, Cores: u.Desc.Cores,
			Detail: strconv.Itoa(unresolved) + " unreplicated inputs"})
	}
}

// failHeld fails a held unit whose input retired unread. The unit's
// final-state hook cancels its own still-new outputs, so the failure
// cascades to every transitive consumer through the ErrDataUnavailable
// path — orphaned descendants never bind.
func (um *UnitManager) failHeld(u *Unit, err error) {
	if u.acct != acctHeld {
		return
	}
	if r := um.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindRelease, Op: "failed", Unit: u.ID,
			Name: u.Desc.Name, Detail: err.Error()})
	}
	u.fail(err)
}

// cancelOrphanOutputs retires the declared output Data-Units of a unit
// that failed or was canceled before staging them: outputs still in
// StateNew are canceled so consumers parked on them fail with
// ErrDataUnavailable instead of waiting forever. Outputs another
// producer is already staging (or has staged) are left alone.
func cancelOrphanOutputs(u *Unit) {
	for _, ref := range u.Desc.Outputs {
		if ref.Unit != nil && ref.Unit.State() == data.StateNew {
			ref.Unit.Manager().Cancel(ref.Unit)
		}
	}
}

// WaitAll blocks until every unit reaches a final state. It is built on
// the same state-callback fabric as Wait.
func (um *UnitManager) WaitAll(p *sim.Proc, units []*Unit) {
	for _, u := range units {
		u.Wait(p)
	}
}
