package pilot

import "repro/internal/core"

// The core sentinel errors, re-exported so applications can branch on
// failure causes with errors.Is without importing internal packages.
// Every variable aliases the identical core sentinel, so an error
// produced anywhere in the stack matches here:
//
//	units, err := um.Submit(p, descs)
//	if errors.Is(err, pilot.ErrNoPilots) { ... }
//	for _, u := range units {
//		if errors.Is(u.Err, pilot.ErrUnschedulable) { ... }
//	}
var (
	// ErrNoPilots: Submit on a UnitManager with no pilots added.
	ErrNoPilots = core.ErrNoPilots
	// ErrNoLivePilot: every pilot added to the manager has reached a
	// final state; recorded as the failed unit's Err.
	ErrNoLivePilot = core.ErrNoLivePilot
	// ErrUnschedulable: the unit's resource demands can never be met by
	// the manager's pilots or the pilot's allocation.
	ErrUnschedulable = core.ErrUnschedulable
	// ErrUnknownScheduler: WithScheduler named an unregistered policy.
	ErrUnknownScheduler = core.ErrUnknownScheduler
	// ErrUnknownResource: a pilot description named a resource that was
	// never added to the session.
	ErrUnknownResource = core.ErrUnknownResource
	// ErrUnknownBackend: a pilot description's Mode named an
	// unregistered execution backend.
	ErrUnknownBackend = core.ErrUnknownBackend

	// ErrNotElastic: Resize on a pilot whose backend cannot change
	// capacity at runtime — the backend implements no Grow/Shrink
	// (Spark), or the deployment forbids it (a Mode II pilot connected
	// to a dedicated cluster it does not manage):
	//
	//	if err := pl.Resize(p, 2); errors.Is(err, pilot.ErrNotElastic) {
	//		// fall back to submitting a second pilot
	//	}
	ErrNotElastic = core.ErrNotElastic

	// ErrPilotFinal: an operation (Resize) on a pilot that has already
	// reached a final state (Done, Canceled, Failed).
	ErrPilotFinal = core.ErrPilotFinal

	// ErrBackendBootstrap: a pilot's agent could not bring its execution
	// backend up. The pilot is PilotFailed and Pilot.Err wraps both this
	// sentinel and the backend's own error:
	//
	//	if errors.Is(pl.Err(), pilot.ErrBackendBootstrap) { ... }
	ErrBackendBootstrap = core.ErrBackendBootstrap
)
