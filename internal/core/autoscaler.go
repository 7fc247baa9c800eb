package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// The built-in autoscale policies. Any name registered through
// RegisterAutoscalePolicy is equally valid for WithAutoscalePolicy.
const (
	// AutoscaleQueueDepth grows when the Unit-Manager backlog per live
	// core exceeds a threshold, and (by default) releases grown chunks
	// again once nothing waits.
	AutoscaleQueueDepth = "queue-depth"
	// AutoscaleUtilization follows the YARN cluster's utilization (RM
	// ClusterMetrics): grow above the high watermark while requests
	// pend, shrink below the low watermark, with a cooldown between
	// actions. The two watermarks are the hysteresis band.
	AutoscaleUtilization = "utilization"
	// AutoscaleDeadline sizes the pilot so the remaining backlog
	// finishes by a target simulation time, given a per-unit runtime
	// estimate.
	AutoscaleDeadline = "deadline"
)

// AutoscaleSnapshot is the view of the world a policy decides on: the
// pilot's current size, the Unit-Manager's demand, and — when the pilot
// runs on YARN — the cluster metrics the paper's agent scheduler polls.
type AutoscaleSnapshot struct {
	// Now is the current virtual time.
	Now sim.Duration
	// Pilot is the managed pilot.
	Pilot *Pilot
	// Nodes is the pilot's current capacity (Pilot.Capacity()); MinNodes
	// and MaxNodes are the autoscaler's bounds for it.
	Nodes, MinNodes, MaxNodes int
	// CoresPerNode and TotalCores describe the capacity in cores.
	CoresPerNode, TotalCores int
	// WaitingUnits/WaitingCores count units submitted to the manager but
	// not yet executing (parked, queued for the agent, or in agent
	// scheduling/staging); RunningUnits/RunningCores count executing
	// units.
	WaitingUnits, WaitingCores int
	RunningUnits, RunningCores int
	// YARN is the connected cluster's metrics snapshot, nil when the
	// pilot's backend does not run on YARN.
	YARN *yarn.ClusterMetrics
	// View is the Unit-Manager's ClusterView the demand numbers above
	// were read from — the whole-cluster picture (every pilot's capacity,
	// demand split, and attached data-store occupancy) for policies that
	// place capacity relative to other pilots, like data-aware. It is
	// the manager's one view, refreshed in place on every read: read it
	// during Decide, do not retain it across scheduling events.
	View *ClusterView
}

// AutoscalePolicy decides how an elastic pilot should resize. Decide
// returns the node delta to apply now: positive grows, negative shrinks,
// zero holds. The Autoscaler clamps the result to its node bounds and
// applies it through Pilot.Resize. One policy instance is created per
// Autoscaler, so implementations may keep state (cooldown clocks, load
// histories) in their receiver.
type AutoscalePolicy interface {
	// Name is the registry key the policy was registered under.
	Name() string
	Decide(s *AutoscaleSnapshot) int
}

// autoscalePolicies is the registry: policy name to per-autoscaler
// factory, an instance of the one generic registry behind every
// pluggable seam.
var autoscalePolicies = registry.New[func() AutoscalePolicy]("core", "autoscale policy", ErrUnknownAutoscalePolicy)

// RegisterAutoscalePolicy adds an autoscale-policy factory under name,
// the key WithAutoscalePolicy selects it by — the elasticity analogue of
// RegisterBackend and RegisterUnitScheduler. The factory runs once per
// Autoscaler. Registration fails on nil factories, empty names, and
// duplicates.
func RegisterAutoscalePolicy(name string, factory func() AutoscalePolicy) error {
	return autoscalePolicies.Register(name, factory)
}

// AutoscalePolicies lists the registered policy names, sorted.
func AutoscalePolicies() []string { return autoscalePolicies.Names() }

// newAutoscalePolicy instantiates the policy name selects; the empty
// name selects queue-depth.
func newAutoscalePolicy(name string) (AutoscalePolicy, error) {
	if name == "" {
		name = AutoscaleQueueDepth
	}
	factory, err := autoscalePolicies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

func init() {
	autoscalePolicies.MustRegister(AutoscaleQueueDepth, func() AutoscalePolicy { return &QueueDepthPolicy{} })
	autoscalePolicies.MustRegister(AutoscaleUtilization, func() AutoscalePolicy { return &UtilizationPolicy{} })
	autoscalePolicies.MustRegister(AutoscaleDeadline, func() AutoscalePolicy { return &DeadlinePolicy{} })
}

// QueueDepthPolicy grows when the Unit-Manager backlog per live core
// exceeds Threshold, and shrinks one node at a time once nothing waits
// and the remaining capacity still covers the running work. The zero
// value is the registry default.
type QueueDepthPolicy struct {
	// Threshold is waiting units per live core above which the policy
	// grows (default 1.0).
	Threshold float64
	// GrowStep is the number of nodes added per decision (default 1).
	GrowStep int
	// KeepIdle disables the shrink-when-idle behaviour, pinning grown
	// capacity until the pilot ends.
	KeepIdle bool
}

// Name implements AutoscalePolicy.
func (*QueueDepthPolicy) Name() string { return AutoscaleQueueDepth }

// Decide implements AutoscalePolicy.
func (p *QueueDepthPolicy) Decide(s *AutoscaleSnapshot) int {
	threshold := p.Threshold
	if threshold <= 0 {
		threshold = 1.0
	}
	step := p.GrowStep
	if step <= 0 {
		step = 1
	}
	if s.TotalCores > 0 && float64(s.WaitingUnits)/float64(s.TotalCores) > threshold {
		return step
	}
	// Shrink in the same step the policy grew in (the autoscaler snaps
	// to chunk boundaries anyway), as long as the remaining capacity
	// still covers the running work.
	if !p.KeepIdle && s.WaitingUnits == 0 && s.Nodes-step >= s.MinNodes &&
		s.RunningCores <= (s.Nodes-step)*s.CoresPerNode {
		return -step
	}
	return 0
}

// UtilizationPolicy follows the connected YARN cluster's memory
// utilization, the dimension its schedulers gate on: grow while
// utilization is above HighWater and container requests pend, shrink
// below LowWater once nothing waits. The watermark gap is the
// hysteresis band, and Cooldown spaces consecutive resizes. Without
// YARN metrics it falls back to the agent-level core utilization. The
// zero value is the registry default.
type UtilizationPolicy struct {
	// HighWater and LowWater bound the target utilization band
	// (defaults 0.80 and 0.25).
	HighWater, LowWater float64
	// GrowStep is the number of nodes added per decision (default 1).
	GrowStep int
	// Cooldown is the minimum virtual time between two resize decisions
	// (default 30s).
	Cooldown sim.Duration

	lastAct sim.Duration
	acted   bool
}

// Name implements AutoscalePolicy.
func (*UtilizationPolicy) Name() string { return AutoscaleUtilization }

// Decide implements AutoscalePolicy.
func (p *UtilizationPolicy) Decide(s *AutoscaleSnapshot) int {
	high, low := p.HighWater, p.LowWater
	if high <= 0 {
		high = 0.80
	}
	if low <= 0 {
		low = 0.25
	}
	step := p.GrowStep
	if step <= 0 {
		step = 1
	}
	cooldown := p.Cooldown
	if cooldown <= 0 {
		cooldown = 30e9
	}
	if p.acted && s.Now-p.lastAct < cooldown {
		return 0
	}
	var util float64
	pending := s.WaitingUnits > 0
	if m := s.YARN; m != nil && m.TotalMB > 0 {
		util = float64(m.AllocatedMB) / float64(m.TotalMB)
		pending = pending || m.PendingRequests > 0 || m.AppsPending > 0
	} else if s.TotalCores > 0 {
		util = float64(s.RunningCores) / float64(s.TotalCores)
	}
	delta := 0
	switch {
	case util > high && pending:
		delta = step
	case util < low && s.WaitingUnits == 0 && s.Nodes-step >= s.MinNodes:
		delta = -step
	}
	if delta != 0 {
		p.lastAct = s.Now
		p.acted = true
	}
	return delta
}

// DeadlinePolicy sizes the pilot so the remaining backlog finishes by
// Deadline: it estimates the outstanding work as core-time
// (waiting + running cores, each for UnitDuration), divides by the time
// left, and targets that many cores. Past the deadline it targets
// MaxNodes. The zero value (registry default) estimates 30s per unit
// and targets one hour of virtual time.
type DeadlinePolicy struct {
	// Deadline is the absolute virtual time the backlog should be done
	// by (default: one hour).
	Deadline sim.Duration
	// UnitDuration is the per-unit runtime estimate (default 30s).
	UnitDuration sim.Duration
}

// Name implements AutoscalePolicy.
func (*DeadlinePolicy) Name() string { return AutoscaleDeadline }

// Decide implements AutoscalePolicy.
func (p *DeadlinePolicy) Decide(s *AutoscaleSnapshot) int {
	deadline := p.Deadline
	if deadline <= 0 {
		deadline = 3600e9
	}
	unitDur := p.UnitDuration
	if unitDur <= 0 {
		unitDur = 30e9
	}
	if s.CoresPerNode <= 0 {
		return 0
	}
	if s.WaitingUnits == 0 && s.RunningUnits == 0 {
		return s.MinNodes - s.Nodes // idle: fall back to the floor
	}
	target := s.MaxNodes
	if remaining := deadline - s.Now; remaining > 0 {
		work := float64(s.WaitingCores+s.RunningCores) * float64(unitDur)
		needCores := int(work/float64(remaining)) + 1
		target = (needCores + s.CoresPerNode - 1) / s.CoresPerNode
	}
	if target < s.MinNodes {
		target = s.MinNodes
	}
	if target > s.MaxNodes {
		target = s.MaxNodes
	}
	return target - s.Nodes
}

// ResizeRecord is one applied resize in an Autoscaler's history.
type ResizeRecord struct {
	// At is the virtual time the resize completed.
	At sim.Duration
	// From and To are the pilot capacities (nodes) around it.
	From, To int
}

// Autoscaler drives one elastic pilot from a pluggable AutoscalePolicy:
// a kick-driven control loop wired to the Unit-Manager's scheduling
// events (submission, unit completion, pilot state changes) — and, with
// WithAutoscaleInterval, a periodic clock — snapshots demand and
// capacity, asks the policy for a node delta, clamps it to the node
// bounds, and applies it through Pilot.Resize. Resizes are applied
// synchronously in the loop, so decisions serialize naturally and kicks
// arriving mid-resize coalesce into one re-evaluation.
type Autoscaler struct {
	um     *UnitManager
	pilot  *Pilot
	policy AutoscalePolicy

	min, max int

	wake    *sim.Queue[struct{}]
	stopped bool
	history []ResizeRecord
}

// AutoscalerOption configures an Autoscaler built by NewAutoscaler.
type AutoscalerOption func(*autoscalerConfig)

type autoscalerConfig struct {
	policyName string
	policy     AutoscalePolicy
	min, max   int
	interval   sim.Duration
}

// WithAutoscalePolicy selects the policy by registered name (default:
// AutoscaleQueueDepth). NewAutoscaler fails with
// ErrUnknownAutoscalePolicy for names never registered.
func WithAutoscalePolicy(name string) AutoscalerOption {
	return func(c *autoscalerConfig) { c.policyName = name }
}

// WithAutoscalePolicyInstance supplies a configured policy value
// directly (e.g. &DeadlinePolicy{Deadline: d}), bypassing the registry.
func WithAutoscalePolicyInstance(p AutoscalePolicy) AutoscalerOption {
	return func(c *autoscalerConfig) { c.policy = p }
}

// WithAutoscaleBounds clamps the pilot size to [min, max] nodes
// (defaults: the pilot's base allocation and the machine size).
func WithAutoscaleBounds(min, max int) AutoscalerOption {
	return func(c *autoscalerConfig) { c.min, c.max = min, max }
}

// WithAutoscaleInterval adds a periodic re-evaluation every d of virtual
// time, so metrics-driven policies see container churn between
// scheduling events (default: kick-driven only).
func WithAutoscaleInterval(d sim.Duration) AutoscalerOption {
	return func(c *autoscalerConfig) { c.interval = d }
}

// NewAutoscaler attaches an autoscaling control loop to the pilot,
// observing demand through the Unit-Manager the pilot serves. The loop
// starts immediately and retires when the pilot reaches a final state
// or Stop is called. Non-elastic pilots are accepted — every Resize
// attempt fails with ErrNotElastic and the loop retires on the first
// one — so callers can wire autoscaling unconditionally.
func NewAutoscaler(um *UnitManager, pl *Pilot, opts ...AutoscalerOption) (*Autoscaler, error) {
	if um == nil || pl == nil {
		return nil, fmt.Errorf("core: autoscaler needs a unit manager and a pilot")
	}
	cfg := autoscalerConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	policy := cfg.policy
	if policy == nil {
		var err error
		policy, err = newAutoscalePolicy(cfg.policyName)
		if err != nil {
			return nil, err
		}
	}
	min, max := cfg.min, cfg.max
	if min <= 0 {
		min = pl.Desc.Nodes
	}
	if max <= 0 {
		max = len(pl.res.Machine.Nodes)
	}
	if min > max {
		return nil, fmt.Errorf("core: autoscaler bounds [%d, %d] are inverted", min, max)
	}
	as := &Autoscaler{
		um:     um,
		pilot:  pl,
		policy: policy,
		min:    min,
		max:    max,
		wake:   sim.NewQueue[struct{}](pl.session.eng),
	}
	um.observe(as.kick)
	pl.OnStateChange(func(*Pilot, PilotState) { as.kick() })
	eng := pl.session.eng
	eng.SpawnDaemon("autoscaler:"+pl.ID, as.loop)
	if cfg.interval > 0 {
		eng.SpawnDaemon("autoscaler:tick:"+pl.ID, func(p *sim.Proc) {
			for !as.stopped && !pl.State().Final() {
				p.Sleep(cfg.interval)
				as.kick()
			}
		})
	}
	return as, nil
}

// Policy returns the autoscaler's policy name.
func (as *Autoscaler) Policy() string { return as.policy.Name() }

// History returns the applied resizes, oldest first.
func (as *Autoscaler) History() []ResizeRecord {
	return append([]ResizeRecord(nil), as.history...)
}

// Stop retires the control loop; in-flight resizes complete.
func (as *Autoscaler) Stop() {
	as.stopped = true
	as.kick()
}

// kick wakes the control loop; kicks coalesce.
func (as *Autoscaler) kick() {
	if as.wake.Len() == 0 {
		as.wake.Put(struct{}{})
	}
}

// loop is the control daemon.
func (as *Autoscaler) loop(p *sim.Proc) {
	for {
		as.wake.Get(p)
		if as.stopped || as.pilot.State().Final() {
			return
		}
		if as.pilot.State() != PilotActive {
			continue // not ready yet, or a resize already in flight
		}
		if !as.evaluate(p) {
			return
		}
	}
}

// evaluate runs one decision cycle; it reports whether the loop should
// keep running.
func (as *Autoscaler) evaluate(p *sim.Proc) bool {
	snap := as.snapshot()
	raw := as.policy.Decide(snap)
	target := snap.Nodes + raw
	if target < as.min {
		target = as.min
	}
	if target > as.max {
		target = as.max
	}
	delta := target - snap.Nodes
	if delta < 0 {
		// Shrinks release whole allocation chunks: snap the magnitude
		// down to what is actually releasable, so the loop never issues
		// a resize that is doomed to fail.
		delta = -as.pilot.ShrinkableBy(-delta)
	}
	as.recordVerdict(snap, raw, delta, nil)
	if delta == 0 {
		return true
	}
	from := snap.Nodes
	err := as.pilot.Resize(p, delta)
	if err != nil {
		as.recordVerdict(snap, raw, delta, err)
	}
	switch {
	case err == nil:
		as.history = append(as.history, ResizeRecord{At: as.pilot.session.eng.Now(), From: from, To: as.pilot.Capacity()})
	case errors.Is(err, ErrNotElastic), errors.Is(err, ErrPilotFinal):
		return false // permanently pointless: retire the loop
	}
	return true
}

// recordVerdict emits a non-zero autoscale decision (raw policy delta
// and the clamped delta actually requested, with the demand snapshot it
// was made against) to the attached flight recorder. Zero verdicts —
// the overwhelming majority of kicks — are not recorded; a failed
// Resize re-records the verdict with the error as Detail.
func (as *Autoscaler) recordVerdict(snap *AutoscaleSnapshot, raw, applied int, err error) {
	r := as.pilot.session.rec
	if r == nil || (raw == 0 && applied == 0) {
		return
	}
	ev := obs.Event{
		Kind: obs.KindAutoscale, Pilot: as.pilot.ID, Policy: as.policy.Name(),
		Delta: raw, Applied: applied, Nodes: snap.Nodes,
		Waiting: snap.WaitingUnits, Running: snap.RunningUnits,
	}
	if err != nil {
		ev.Detail = err.Error()
	}
	r.Record(ev)
}

// snapshot assembles the policy's world view from the Unit-Manager's
// shared ClusterView.
func (as *Autoscaler) snapshot() *AutoscaleSnapshot {
	pl := as.pilot
	view := as.um.ClusterView()
	s := &AutoscaleSnapshot{
		Now:      view.Now,
		Pilot:    pl,
		Nodes:    pl.Capacity(),
		MinNodes: as.min,
		MaxNodes: as.max,
		YARN:     pl.YARNMetrics(),
		View:     view,
	}
	if pl.res != nil && pl.res.Machine != nil {
		s.CoresPerNode = pl.res.Machine.Spec.Node.Cores
	}
	s.TotalCores = pilotCoreCapacity(pl)
	s.WaitingUnits, s.WaitingCores = view.WaitingUnits, view.WaitingCores
	s.RunningUnits, s.RunningCores = view.RunningUnits, view.RunningCores
	return s
}
