package core

import "errors"

// Sentinel errors for the core API's failure modes. Failure sites wrap
// them with context via fmt.Errorf("...: %w", ...), and the public pilot
// package re-exports them, so callers branch on the cause with errors.Is
// instead of matching message strings:
//
//	if errors.Is(u.Err, core.ErrNoLivePilot) {
//		// every pilot died: resubmit through another manager
//	}
var (
	// ErrNoPilots reports a Submit on a UnitManager that has no pilots
	// added yet.
	ErrNoPilots = errors.New("unit manager has no pilots")

	// ErrNoLivePilot reports that every pilot added to the manager has
	// reached a final state, so a unit can never be placed.
	ErrNoLivePilot = errors.New("no live pilot")

	// ErrUnschedulable reports a unit whose resource demands can never be
	// satisfied — by any of the manager's pilots (unit-scheduler level) or
	// by the pilot's allocation (agent-scheduler level).
	ErrUnschedulable = errors.New("unit is unschedulable")

	// ErrUnknownScheduler reports a WithScheduler option naming a policy
	// that was never registered through RegisterUnitScheduler.
	ErrUnknownScheduler = errors.New("unknown unit scheduler")

	// ErrUnknownResource reports a pilot description naming a resource
	// that was never added to the session.
	ErrUnknownResource = errors.New("unknown resource")

	// ErrUnknownBackend reports a pilot description whose Mode names a
	// backend that was never registered through RegisterBackend.
	ErrUnknownBackend = errors.New("unknown backend")

	// ErrNotElastic reports a Resize on a pilot whose backend cannot
	// change capacity at runtime — either the backend does not implement
	// ElasticBackend (Spark), or the deployment forbids it (a Mode II
	// pilot on a dedicated cluster it does not manage).
	ErrNotElastic = errors.New("pilot is not elastic")

	// ErrPilotFinal reports an operation on a pilot that has already
	// reached a final state (Done, Canceled, Failed).
	ErrPilotFinal = errors.New("pilot is in a final state")

	// ErrBackendBootstrap reports a pilot whose agent could not bring
	// its execution backend up: Backend.Bootstrap returned an error. The
	// pilot moves to PilotFailed with the wrapped cause in Pilot.Err, and
	// units waiting for it fail over like on any other pilot death.
	ErrBackendBootstrap = errors.New("backend bootstrap failed")
)
