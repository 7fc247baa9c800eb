package core

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/sim"
)

// The built-in unit-scheduler policies. Any name registered through
// RegisterUnitScheduler is equally valid for WithScheduler.
const (
	// SchedulerRoundRobin binds each unit eagerly to the next live pilot
	// in rotation — the v1 behavior and the default.
	SchedulerRoundRobin = "round-robin"
	// SchedulerLeastLoaded binds eagerly to the live pilot with the
	// fewest in-flight units (units bound but not yet final), tracked
	// through the state-callback fabric.
	SchedulerLeastLoaded = "least-loaded"
	// SchedulerBackfill late-binds: units park in the manager's queue and
	// bind only to Active pilots with free core capacity, a YARN pilot's
	// capacity being its cluster's live NodeManager vcores. Capacity
	// freed by finishing units is backfilled immediately.
	SchedulerBackfill = "backfill"
	// SchedulerLocality prefers the pilot holding the unit's input data:
	// the replica bytes of ComputeUnitDescription.Inputs on the pilot's
	// attached data pilot decide, falling back to least-loaded placement
	// for data-free units.
	SchedulerLocality = "locality"
	// SchedulerCoLocate is the affinity-aware late binder: like
	// backfill it only binds to Active pilots with free core capacity,
	// but among the eligible ones the pilot whose attached data pilot
	// holds the most input bytes wins — compute moves to the data, the
	// Pilot-Data co-scheduling mode. The score is store-pressure aware:
	// pilots whose attached store cannot absorb the unit's declared
	// output bytes are avoided while an alternative exists.
	SchedulerCoLocate = "co-locate"
)

// pilotCoreCapacity is the one definition of a pilot's core capacity:
// the connected YARN cluster's vcore count once a YARN agent is up, and
// the current allocation size (Pilot.Capacity() nodes × per-node cores)
// otherwise — both track elastic resizes. Zero means unknown. It
// allocates nothing and costs O(NodeManagers) on YARN pilots, however
// many applications the cluster has run.
func pilotCoreCapacity(pl *Pilot) int {
	if yb, ok := pl.backend.(*yarnBackend); ok && pl.agent != nil && yb.rm != nil {
		if v := yb.rm.TotalVCores(); v > 0 {
			return v
		}
	}
	res := pl.Resource()
	if res == nil || res.Machine == nil {
		return 0
	}
	return pl.Capacity() * res.Machine.Spec.Node.Cores
}

// UnitScheduler is the Unit-Manager's pluggable placement policy: it
// decides which pilot each submitted unit binds to, and when. One
// instance is created per UnitManager (factories may keep per-manager
// state such as a rotation cursor).
//
// Pick is called with the manager's live (non-final) pilots, at
// submission time and again on every scheduling event (pilot state
// change, unit completion, new pilot) while the unit is unbound. Each
// candidate is the pilot's row of the manager's ClusterView: the
// manager's ledger for the pilot, with probes refreshed before every
// offer. Read the rows during Pick; do not retain them across
// scheduling events. Pick returns one of three outcomes:
//
//   - a candidate's pilot: the unit binds to it now;
//   - (nil, nil): leave the unit pending — late binding; the manager
//     retries on the next scheduling event;
//   - an error: the unit fails with that error as its cause (wrap
//     ErrUnschedulable for demands that can never be met).
//
// Pick runs inside the manager's scheduling pass on process p and may
// block in virtual time (e.g. for filesystem metadata lookups).
type UnitScheduler interface {
	// Name is the registry key the policy was registered under.
	Name() string
	Pick(p *sim.Proc, u *Unit, cands []*PilotView) (*Pilot, error)
}

// CapacityGated marks a UnitScheduler whose park decision is exactly
// the pickAdmissible admission rule: the policy parks a unit if and
// only if no Active (or Resizing) pilot has enough free cores for it
// (unknown capacity counting as enough), and it never blocks or keeps
// cross-offer state on the park path. The manager exploits the
// contract: parked units index by core demand and are re-offered only
// when some pilot could admit that demand — or on pilot topology/state
// events, which re-offer everything so ErrUnschedulable answers stay
// current. Policies that park on any other signal must not implement
// this, or their parked units would miss offers they want.
type CapacityGated interface{ CapacityGated() }

// unitSchedulers is the registry: policy name to per-manager factory,
// an instance of the one generic registry behind every pluggable seam.
var unitSchedulers = registry.New[func() UnitScheduler]("core", "unit scheduler", ErrUnknownScheduler)

// RegisterUnitScheduler adds a unit-scheduler factory under name, the
// key WithScheduler selects it by. Instances the factory constructs
// should report the same string from Name(). The factory is invoked once
// per UnitManager. Registration fails on nil factories, empty names, and
// duplicates.
func RegisterUnitScheduler(name string, factory func() UnitScheduler) error {
	return unitSchedulers.Register(name, factory)
}

// UnitSchedulers lists the registered policy names, sorted.
func UnitSchedulers() []string { return unitSchedulers.Names() }

// newUnitScheduler instantiates the policy name selects; the empty name
// selects the default round-robin.
func newUnitScheduler(name string) (UnitScheduler, error) {
	if name == "" {
		name = SchedulerRoundRobin
	}
	factory, err := unitSchedulers.Lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

func init() {
	unitSchedulers.MustRegister(SchedulerRoundRobin, func() UnitScheduler { return &rrScheduler{} })
	unitSchedulers.MustRegister(SchedulerLeastLoaded, func() UnitScheduler { return &leastLoadedScheduler{} })
	unitSchedulers.MustRegister(SchedulerBackfill, func() UnitScheduler { return &backfillScheduler{} })
	unitSchedulers.MustRegister(SchedulerLocality, func() UnitScheduler { return &localityScheduler{} })
	unitSchedulers.MustRegister(SchedulerCoLocate, func() UnitScheduler { return &coLocateScheduler{} })
}

// rrScheduler rotates over the live candidates — eager binding, blind to
// load and pilot readiness, exactly the v1 Submit behavior.
type rrScheduler struct {
	next int
}

func (*rrScheduler) Name() string { return SchedulerRoundRobin }

func (s *rrScheduler) Pick(_ *sim.Proc, _ *Unit, cands []*PilotView) (*Pilot, error) {
	pl := cands[s.next%len(cands)].Pilot
	s.next++
	return pl, nil
}

// leastLoadedScheduler binds eagerly to the candidate with the fewest
// in-flight units, ties resolved by registration order.
type leastLoadedScheduler struct{}

func (*leastLoadedScheduler) Name() string { return SchedulerLeastLoaded }

func (*leastLoadedScheduler) Pick(_ *sim.Proc, _ *Unit, cands []*PilotView) (*Pilot, error) {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.InFlightUnits() < best.InFlightUnits() {
			best = c
		}
	}
	return best.Pilot, nil
}

// pickAdmissible is the shared late-binding admission rule of backfill
// and co-locate: only Active (or Resizing — a resizing pilot keeps
// serving units on its current capacity) pilots with enough free cores
// are eligible; among them the highest score wins, ties resolved by
// fewest in-flight cores. With no eligible pilot the unit parks
// (nil, nil) unless no pilot could ever fit it, which is
// ErrUnschedulable. Unknown capacity counts as potentially fitting.
func pickAdmissible(u *Unit, cands []*PilotView, score func(*PilotView) int64) (*Pilot, error) {
	var best *PilotView
	var bestScore int64
	couldEverFit := false
	for _, c := range cands {
		capacity := c.TotalCores
		if capacity == 0 || capacity >= u.Desc.Cores {
			couldEverFit = true
		}
		if st := c.Pilot.State(); st != PilotActive && st != PilotResizing {
			continue
		}
		if capacity > 0 && c.FreeCores() < u.Desc.Cores {
			continue
		}
		s := score(c)
		if best == nil || s > bestScore || (s == bestScore && c.InFlightCores() < best.InFlightCores()) {
			best, bestScore = c, s
		}
	}
	if best != nil {
		return best.Pilot, nil
	}
	if !couldEverFit {
		return nil, fmt.Errorf("%w: needs %d cores, beyond every pilot's capacity",
			ErrUnschedulable, u.Desc.Cores)
	}
	return nil, nil // park until capacity frees or a pilot becomes Active
}

// backfillScheduler is the capacity-aware late binder: a unit binds only
// when an Active pilot has enough free cores for it, and otherwise parks
// in the manager's queue until capacity frees up or another pilot comes
// up — so work is never committed to a pilot that is still in the batch
// queue or already saturated. Among eligible pilots the least committed
// one (fewest in-flight cores) wins.
type backfillScheduler struct{}

func (*backfillScheduler) Name() string { return SchedulerBackfill }

// CapacityGated: backfill parks exactly when pickAdmissible finds no
// admissible pilot, so the manager may capacity-index its parks.
func (*backfillScheduler) CapacityGated() {}

func (*backfillScheduler) Pick(_ *sim.Proc, u *Unit, cands []*PilotView) (*Pilot, error) {
	return pickAdmissible(u, cands, func(*PilotView) int64 { return 0 })
}

// localityScheduler implements the paper's data-locality argument at the
// Unit-Manager level: a unit referencing input data goes to the pilot
// holding it. Typed Inputs count by replica bytes on the pilot's
// attached data pilot; more bytes win, ties by fewer in-flight units.
// Data-free units fall back to least-loaded placement.
type localityScheduler struct {
	fallback leastLoadedScheduler
}

func (*localityScheduler) Name() string { return SchedulerLocality }

func (s *localityScheduler) Pick(p *sim.Proc, u *Unit, cands []*PilotView) (*Pilot, error) {
	if len(u.Desc.Inputs) > 0 {
		var best *PilotView
		var bestBytes int64
		for _, c := range cands {
			bytes := c.InputBytes(u)
			if bytes == 0 {
				continue
			}
			if best == nil || bytes > bestBytes ||
				(bytes == bestBytes && c.InFlightUnits() < best.InFlightUnits()) {
				best, bestBytes = c, bytes
			}
		}
		if best != nil {
			return best.Pilot, nil
		}
	}
	return s.fallback.Pick(p, u, cands)
}

// outputBytes sums the declared output Data-Unit sizes of the unit —
// the bytes the pilot's attached store will be asked to absorb when the
// unit completes.
func outputBytes(u *Unit) int64 {
	var total int64
	for _, ref := range u.Desc.Outputs {
		if ref.Unit != nil {
			total += ref.Unit.SizeBytes()
		}
	}
	return total
}

// storePressurePenalty pushes a candidate whose attached store cannot
// absorb a unit's declared outputs below every candidate that can. It
// dwarfs any realistic input-byte score, but only reorders preferences:
// a penalized pilot still binds when nothing better is admissible, so
// store pressure never makes a unit unschedulable.
const storePressurePenalty = int64(1) << 50

// coLocateScheduler binds compute next to its data, late: a unit waits
// in the manager's queue until a pilot is Active with free core
// capacity (the backfill admission rule), and among the eligible pilots
// the one whose attached data pilot holds the most input bytes wins —
// ties resolved by fewest in-flight cores. The score is store-pressure
// aware: an output-heavy unit avoids pilots whose attached store lacks
// the free bytes for its declared outputs (PilotView.DataFreeBytes), so
// produced data is not forced onto a remote store. Units without data
// behave exactly like backfill.
type coLocateScheduler struct{}

func (*coLocateScheduler) Name() string { return SchedulerCoLocate }

// CapacityGated: co-locate scores differently but parks exactly on the
// pickAdmissible rule, so its parks may capacity-index too.
func (*coLocateScheduler) CapacityGated() {}

func (*coLocateScheduler) Pick(_ *sim.Proc, u *Unit, cands []*PilotView) (*Pilot, error) {
	out := outputBytes(u)
	return pickAdmissible(u, cands, func(c *PilotView) int64 {
		score := c.InputBytes(u)
		// Store pressure applies only where outputs could land locally.
		if out > 0 && c.DataPilot != nil {
			if free := c.DataFreeBytes(); free >= 0 && free < out {
				score -= storePressurePenalty
			}
		}
		return score
	})
}
