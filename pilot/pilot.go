package pilot

import (
	"repro/internal/core"
)

// The core entities, re-exported as the public API. These are aliases,
// not copies: values cross freely between this package and internal
// packages that still name the core types.
type (
	// Session owns the client-side managers, the coordination store,
	// and the resource registry (radical.pilot.Session).
	Session = core.Session
	// Resource is a machine registered with a Session.
	Resource = core.Resource
	// Pilot is a placeholder job; once active it executes units. Its
	// Timestamps array holds when each PilotState was entered;
	// Timestamp(st) also reports whether st was reached.
	Pilot = core.Pilot
	// Unit is a Compute-Unit executed by a pilot's agent. Its Timestamps
	// array holds when each UnitState was entered; Timestamp(st) also
	// reports whether st was reached.
	Unit = core.Unit
	// PilotManager submits and tracks pilots.
	PilotManager = core.PilotManager
	// UnitManager binds units to pilots and dispatches them.
	UnitManager = core.UnitManager
	// PilotDescription describes a pilot request.
	PilotDescription = core.PilotDescription
	// ComputeUnitDescription describes one Compute-Unit.
	ComputeUnitDescription = core.ComputeUnitDescription
	// UnitContext is handed to a unit's Body: where it runs and which
	// storage it sees.
	UnitContext = core.UnitContext
	// UnitBody is the simulated executable of a Compute-Unit.
	UnitBody = core.UnitBody
	// BootstrapProfile calibrates the agent/cluster bootstrap cost
	// model.
	BootstrapProfile = core.BootstrapProfile

	// PilotState and UnitState follow the RADICAL-Pilot state models.
	PilotState = core.PilotState
	UnitState  = core.UnitState
	// PilotMode names the execution backend a description selects.
	PilotMode = core.PilotMode
	// LaunchMethod selects how the agent starts the unit executable.
	LaunchMethod = core.LaunchMethod

	// PilotCallback and UnitCallback observe state transitions
	// registered through OnStateChange.
	PilotCallback = core.PilotCallback
	UnitCallback  = core.UnitCallback

	// Backend is the pluggable execution-runtime seam; see
	// RegisterBackend.
	Backend = core.Backend
	// BackendContext is the agent view a Backend operates through.
	BackendContext = core.BackendContext
	// AgentScheduler admits units onto a pilot's resources.
	AgentScheduler = core.AgentScheduler
	// Slot is an agent-level resource reservation for one unit.
	Slot = core.Slot
	// YARNMetricsProvider is implemented by backends that can report
	// YARN cluster metrics.
	YARNMetricsProvider = core.YARNMetricsProvider
	// HDFSProvider is implemented by backends whose pilots carry an HDFS
	// filesystem, read through Pilot.HDFS.
	HDFSProvider = core.HDFSProvider

	// UnitScheduler is the Unit-Manager's pluggable placement-policy
	// seam; see RegisterUnitScheduler and WithScheduler.
	UnitScheduler = core.UnitScheduler
	// UnitManagerOption configures NewUnitManager.
	UnitManagerOption = core.UnitManagerOption
)

// Pilot states in lifecycle order.
const (
	PilotNew           = core.PilotNew
	PilotLaunching     = core.PilotLaunching
	PilotPending       = core.PilotPending
	PilotAgentStarting = core.PilotAgentStarting
	PilotActive        = core.PilotActive
	PilotDone          = core.PilotDone
	PilotCanceled      = core.PilotCanceled
	PilotFailed        = core.PilotFailed
)

// Unit states in lifecycle order.
const (
	UnitNew             = core.UnitNew
	UnitPendingResult   = core.UnitPendingResult
	UnitPendingInput    = core.UnitPendingInput
	UnitSchedulingUM    = core.UnitSchedulingUM
	UnitPendingAgent    = core.UnitPendingAgent
	UnitSchedulingAgent = core.UnitSchedulingAgent
	UnitStagingInput    = core.UnitStagingInput
	UnitExecuting       = core.UnitExecuting
	UnitStagingOutput   = core.UnitStagingOutput
	UnitDone            = core.UnitDone
	UnitCanceled        = core.UnitCanceled
	UnitFailed          = core.UnitFailed
)

// The built-in execution backends.
const (
	ModeHPC   = core.ModeHPC
	ModeYARN  = core.ModeYARN
	ModeSpark = core.ModeSpark
)

// Launch methods.
const (
	LaunchDefault = core.LaunchDefault
	LaunchFork    = core.LaunchFork
	LaunchMPIExec = core.LaunchMPIExec
	LaunchAPRun   = core.LaunchAPRun
)

// The built-in unit-scheduling policies selectable through
// WithScheduler; see the core constants for their semantics.
const (
	SchedulerRoundRobin  = core.SchedulerRoundRobin
	SchedulerLeastLoaded = core.SchedulerLeastLoaded
	SchedulerBackfill    = core.SchedulerBackfill
	SchedulerLocality    = core.SchedulerLocality
	SchedulerCoLocate    = core.SchedulerCoLocate
)

// DefaultProfile returns the calibrated bootstrap cost model that
// reproduces the paper's Section IV startup ranges.
func DefaultProfile() BootstrapProfile { return core.DefaultProfile() }

// NewPilotManager creates a pilot manager on the session.
func NewPilotManager(s *Session) *PilotManager { return core.NewPilotManager(s) }

// NewUnitManager creates a unit manager on the session.
//
// Since v2 it takes functional options and returns an error:
//
//	um, err := pilot.NewUnitManager(session, pilot.WithScheduler("backfill"))
//
// With no options the manager uses the round-robin policy and behaves
// exactly like v1 apart from the second return value; it fails with
// ErrUnknownScheduler when WithScheduler names an unregistered policy.
func NewUnitManager(s *Session, opts ...UnitManagerOption) (*UnitManager, error) {
	return core.NewUnitManager(s, opts...)
}

// WithScheduler selects the unit-scheduling policy by registered name
// (default: SchedulerRoundRobin).
func WithScheduler(name string) UnitManagerOption { return core.WithScheduler(name) }

// RegisterUnitScheduler adds a unit-scheduling policy under name, the
// key WithScheduler selects it by — the Unit-Manager analogue of
// RegisterBackend. The factory runs once per UnitManager, so policies
// may keep per-manager state (rotation cursors, load histories) in
// their receiver:
//
//	pilot.RegisterUnitScheduler("random", func() pilot.UnitScheduler { return &randomPolicy{} })
//	um, err := pilot.NewUnitManager(session, pilot.WithScheduler("random"))
//
// Registration fails on nil factories, empty names, and duplicates.
func RegisterUnitScheduler(name string, factory func() UnitScheduler) error {
	return core.RegisterUnitScheduler(name, factory)
}

// UnitSchedulers lists the registered unit-scheduler names, sorted. The
// built-ins ("backfill", "co-locate", "least-loaded", "locality",
// "round-robin") are always present.
func UnitSchedulers() []string { return core.UnitSchedulers() }
