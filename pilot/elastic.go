// Elastic pilots: runtime cluster resizing and the pluggable autoscaler
// subsystem, re-exported from internal/core. See the package
// documentation in doc.go for the overview.

package pilot

import (
	"repro/internal/core"
	"repro/internal/sim"
)

type (
	// ElasticBackend is the optional capability interface of backends
	// whose pilots can resize at runtime; see Pilot.Resize.
	ElasticBackend = core.ElasticBackend

	// Autoscaler drives one elastic pilot from a pluggable policy.
	Autoscaler = core.Autoscaler
	// AutoscalePolicy decides how an elastic pilot should resize.
	AutoscalePolicy = core.AutoscalePolicy
	// AutoscaleSnapshot is the world view a policy decides on.
	AutoscaleSnapshot = core.AutoscaleSnapshot
	// AutoscalerOption configures NewAutoscaler.
	AutoscalerOption = core.AutoscalerOption
	// ResizeRecord is one applied resize in an Autoscaler's history.
	ResizeRecord = core.ResizeRecord

	// QueueDepthPolicy, UtilizationPolicy and DeadlinePolicy are the
	// built-in autoscale policies, exported so callers can configure
	// them via WithAutoscalePolicyInstance or register tuned variants
	// under their own names.
	QueueDepthPolicy  = core.QueueDepthPolicy
	UtilizationPolicy = core.UtilizationPolicy
	DeadlinePolicy    = core.DeadlinePolicy
)

// PilotResizing marks a Resize in flight; the pilot keeps executing
// units on its current capacity and returns to PilotActive when the
// resize completes.
const PilotResizing = core.PilotResizing

// The built-in autoscale policies selectable through
// WithAutoscalePolicy; see the core constants for their semantics.
const (
	AutoscaleQueueDepth  = core.AutoscaleQueueDepth
	AutoscaleUtilization = core.AutoscaleUtilization
	AutoscaleDeadline    = core.AutoscaleDeadline
)

// NewAutoscaler attaches an autoscaling control loop to the pilot,
// observing demand through the Unit-Manager it serves. The loop retires
// when the pilot reaches a final state, when Stop is called, or on the
// first ErrNotElastic.
func NewAutoscaler(um *UnitManager, pl *Pilot, opts ...AutoscalerOption) (*Autoscaler, error) {
	return core.NewAutoscaler(um, pl, opts...)
}

// WithAutoscalePolicy selects the autoscale policy by registered name
// (default: AutoscaleQueueDepth).
func WithAutoscalePolicy(name string) AutoscalerOption { return core.WithAutoscalePolicy(name) }

// WithAutoscalePolicyInstance supplies a configured policy value
// directly, e.g. &pilot.DeadlinePolicy{Deadline: d}.
func WithAutoscalePolicyInstance(p AutoscalePolicy) AutoscalerOption {
	return core.WithAutoscalePolicyInstance(p)
}

// WithAutoscaleBounds clamps the pilot size to [min, max] nodes.
func WithAutoscaleBounds(min, max int) AutoscalerOption { return core.WithAutoscaleBounds(min, max) }

// WithAutoscaleInterval adds a periodic re-evaluation every d of
// virtual time on top of the kick-driven wakeups.
func WithAutoscaleInterval(d sim.Duration) AutoscalerOption { return core.WithAutoscaleInterval(d) }

// RegisterAutoscalePolicy adds an autoscale policy under name, the key
// WithAutoscalePolicy selects it by — the elasticity analogue of
// RegisterBackend and RegisterUnitScheduler:
//
//	pilot.RegisterAutoscalePolicy("aggressive", func() pilot.AutoscalePolicy {
//		return &pilot.QueueDepthPolicy{Threshold: 0.25, GrowStep: 2}
//	})
//
// Registration fails on nil factories, empty names, and duplicates.
func RegisterAutoscalePolicy(name string, factory func() AutoscalePolicy) error {
	return core.RegisterAutoscalePolicy(name, factory)
}

// AutoscalePolicies lists the registered autoscale-policy names,
// sorted. The built-ins ("data-aware", "deadline", "queue-depth",
// "utilization") are always present.
func AutoscalePolicies() []string { return core.AutoscalePolicies() }
