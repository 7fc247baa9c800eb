package core

import "fmt"

// PilotState follows the RADICAL-Pilot pilot state model.
type PilotState int

// Pilot states in lifecycle order.
const (
	PilotNew PilotState = iota
	// PilotLaunching: the placeholder job is being submitted via SAGA.
	PilotLaunching
	// PilotPending: queued in the resource manager.
	PilotPending
	// PilotAgentStarting: nodes allocated, agent bootstrapping (and, in
	// Mode I, spawning the Hadoop/Spark cluster).
	PilotAgentStarting
	// PilotActive: the agent accepts Compute-Units.
	PilotActive
	// PilotResizing: a Resize is in flight — the pilot still accepts and
	// executes units on its current capacity while the extra allocation
	// chunk is acquired (grow) or drained (shrink). The pilot returns to
	// PilotActive when the resize completes, so PilotActive is the only
	// state that can be re-entered (subscribers see it announced again).
	PilotResizing
	// PilotDone: the pilot terminated normally.
	PilotDone
	// PilotCanceled: the pilot was canceled.
	PilotCanceled
	// PilotFailed: the placeholder job failed (e.g. walltime), or its
	// agent could not bring the backend up (Pilot.Err says why).
	PilotFailed

	numPilotStates = iota // sizes Pilot.Timestamps
)

// String returns the RADICAL-Pilot-style state name.
func (s PilotState) String() string {
	switch s {
	case PilotNew:
		return "NEW"
	case PilotLaunching:
		return "PMGR_LAUNCHING"
	case PilotPending:
		return "PMGR_ACTIVE_PENDING"
	case PilotAgentStarting:
		return "AGENT_STARTING"
	case PilotActive:
		return "PMGR_ACTIVE"
	case PilotResizing:
		return "PMGR_ACTIVE_RESIZING"
	case PilotDone:
		return "DONE"
	case PilotCanceled:
		return "CANCELED"
	case PilotFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("PilotState(%d)", int(s))
	}
}

// Final reports whether the state is terminal.
func (s PilotState) Final() bool {
	return s == PilotDone || s == PilotCanceled || s == PilotFailed
}

// UnitState follows the RADICAL-Pilot Compute-Unit state model.
type UnitState int

// Unit states in lifecycle order.
const (
	UnitNew UnitState = iota
	// UnitPendingResult: held by the Unit-Manager because an identical
	// unit is already executing — the singleflight hold of the result
	// cache (WithResultCache). The leader's final state releases it:
	// UnitDone completes the waiter from the cached result, a failed or
	// canceled leader sends it back through the ordinary submit path to
	// execute on its own. Only coalesced waiters ever enter this state.
	UnitPendingResult
	// UnitPendingInput: held by the Unit-Manager until every referenced
	// input Data-Unit is replicated — the dependency-aware late-binding
	// state graph-structured workloads park in. Units whose inputs are
	// already readable at submission skip it.
	UnitPendingInput
	// UnitSchedulingUM: held by the Unit-Manager, selecting a pilot.
	UnitSchedulingUM
	// UnitPendingAgent: queued in the coordination store for the agent.
	UnitPendingAgent
	// UnitSchedulingAgent: the agent scheduler is finding a slot.
	UnitSchedulingAgent
	// UnitStagingInput: input files are staged into the sandbox.
	UnitStagingInput
	// UnitExecuting: the executable runs.
	UnitExecuting
	// UnitStagingOutput: output files are staged out.
	UnitStagingOutput
	// UnitDone: finished successfully.
	UnitDone
	// UnitCanceled: canceled.
	UnitCanceled
	// UnitFailed: the executable or its launch failed.
	UnitFailed

	numUnitStates = iota // sizes Unit.Timestamps
)

// String returns the RADICAL-Pilot-style state name.
func (s UnitState) String() string {
	switch s {
	case UnitNew:
		return "NEW"
	case UnitPendingResult:
		return "UMGR_PENDING_RESULT"
	case UnitPendingInput:
		return "UMGR_PENDING_INPUT"
	case UnitSchedulingUM:
		return "UMGR_SCHEDULING"
	case UnitPendingAgent:
		return "AGENT_STAGING_INPUT_PENDING"
	case UnitSchedulingAgent:
		return "AGENT_SCHEDULING"
	case UnitStagingInput:
		return "AGENT_STAGING_INPUT"
	case UnitExecuting:
		return "AGENT_EXECUTING"
	case UnitStagingOutput:
		return "AGENT_STAGING_OUTPUT"
	case UnitDone:
		return "DONE"
	case UnitCanceled:
		return "CANCELED"
	case UnitFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("UnitState(%d)", int(s))
	}
}

// Final reports whether the state is terminal.
func (s UnitState) Final() bool {
	return s == UnitDone || s == UnitCanceled || s == UnitFailed
}
