package data

import "fmt"

// UnitState follows the Pilot-Data state model: a data unit is declared,
// staged in, replicated to its target count, and eventually removed (or
// fails/cancels along the way).
type UnitState int

// Data-Unit states in lifecycle order.
const (
	// StateNew: declared with the manager, no replica exists yet.
	StateNew UnitState = iota
	// StateStagingIn: replicas are being staged onto data pilots.
	StateStagingIn
	// StateReplicated: the placement met its replication target; the
	// unit is readable and compute can be co-scheduled against it.
	StateReplicated
	// StateDone: the unit was removed and its replicas freed.
	StateDone
	// StateCanceled: staging was canceled.
	StateCanceled
	// StateFailed: staging failed (see Unit.Err).
	StateFailed

	numStates = iota // sizes Unit.Timestamps
)

// String returns the RADICAL-Pilot-style state name.
func (s UnitState) String() string {
	switch s {
	case StateNew:
		return "NEW"
	case StateStagingIn:
		return "STAGING_IN"
	case StateReplicated:
		return "REPLICATED"
	case StateDone:
		return "DONE"
	case StateCanceled:
		return "CANCELED"
	case StateFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("UnitState(%d)", int(s))
	}
}

// Final reports whether the state is terminal.
func (s UnitState) Final() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}
