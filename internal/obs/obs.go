// Package obs is the flight recorder: a structured event-tracing and
// live-gauge subsystem riding the pilot stack's notifier/state-callback
// fabric. A Recorder captures typed events at virtual time — unit,
// pilot and Data-Unit state transitions, scheduler bind decisions,
// autoscaler verdicts, UnitGraph hold/release edges, result-cache
// traffic, replica placement and store failures — each carrying entity
// IDs so causality is reconstructable from the stream alone. Each of
// those facts is recorded once, as its typed event. The engine's
// free-form Tracef lines land in the stream too (KindTrace), but only
// for activity no typed event covers: batch-queue, YARN and agent
// lines.
// On top of the stream sit a Chrome trace-event exporter
// (WriteChromeTrace, viewable in Perfetto), a gauge Series sampled from
// the ClusterView on scheduling events (exportable as JSONL), and the
// recorder invariants VerifyBinds checks.
//
// Events and samples are stored in append-only blocks (blockLog) that
// are never copied as the recording grows; Events and Samples return
// one exact-size copy each. The Chrome exporter streams through a
// buffered writer instead of building the trace in memory.
//
// Recording is strictly opt-in: without a Recorder attached to the
// session (pilot.WithRecorder), the instrumented code paths pay a nil
// check and nothing else.
package obs

import (
	"time"

	"repro/internal/sim"
)

// Kind classifies an Event.
type Kind string

// The event kinds a Recorder captures.
const (
	// KindUnitState marks a Compute-Unit entering a state. Unit and
	// State are set; Pilot names the bound pilot once one is.
	KindUnitState Kind = "unit-state"
	// KindPilotState marks a pilot entering a state (including the
	// re-announced PMGR_ACTIVE after a resize).
	KindPilotState Kind = "pilot-state"
	// KindDataState marks a Data-Unit entering a state.
	KindDataState Kind = "data-state"
	// KindBind is a scheduler decision: the Unit-Manager bound Unit to
	// Pilot under Policy. Detail says why (the candidate's free
	// capacity at decision time).
	KindBind Kind = "bind"
	// KindHold marks a unit parking in a Unit-Manager hold state: Op
	// "input" for UMGR_PENDING_INPUT (unreplicated inputs), "result"
	// for UMGR_PENDING_RESULT (coalesced onto an in-flight leader).
	KindHold Kind = "hold"
	// KindRelease marks a held unit leaving its hold: Op "input" when
	// the last input replicated, "failed" when an input retired unread.
	KindRelease Kind = "release"
	// KindAutoscale is an autoscaler verdict that asked for capacity
	// change: Delta is the policy's raw decision, Applied the clamped
	// delta actually requested, Nodes the capacity it decided on, and
	// Waiting/Running the demand snapshot it saw.
	KindAutoscale Kind = "autoscale"
	// KindCache is result-cache traffic: Op "hit", "coalesce", "lead",
	// "complete", "abort" or "requeue".
	KindCache Kind = "cache"
	// KindReplica is Data-Unit replica motion: Op "place",
	// "re-replicate", "cache" (opportunistic stage-in copy), "evict"
	// (cached copy drained) or "promote" (cached copy became a managed
	// replica). Pilot names the data pilot by label.
	KindReplica Kind = "replica"
	// KindStoreFail marks a data pilot killed by FailPilot; Bytes
	// carries the occupancy lost with it.
	KindStoreFail Kind = "store-fail"
	// KindGraphAdmit marks a UnitGraph node admitted to the
	// Unit-Manager; Critical carries its critical-path length.
	KindGraphAdmit Kind = "graph-admit"
	// KindTrace is a free-form sim.Engine.Tracef line routed through
	// the recorder; Detail holds the formatted message. Only batch
	// queue, YARN and agent lines arrive this way: unit, pilot and
	// Data-Unit transitions, cache traffic, replica motion and store
	// failures are their typed events alone.
	KindTrace Kind = "trace"
)

// Event is one recorded observation. Only the fields a Kind documents
// are meaningful; the rest stay zero. The flat shape keeps recording
// allocation-light and lets consumers filter without type switches.
type Event struct {
	// Seq is the recorder-assigned sequence number (dense from 0);
	// events at equal virtual time stay in record order.
	Seq int `json:"seq"`
	// At is the virtual time the event was recorded.
	At   time.Duration `json:"at"`
	Kind Kind          `json:"kind"`

	// Unit, Pilot and Data identify the entities involved: Compute-Unit
	// ID, pilot ID (or data-pilot label on KindReplica/KindStoreFail),
	// Data-Unit ID.
	Unit  string `json:"unit,omitempty"`
	Pilot string `json:"pilot,omitempty"`
	Data  string `json:"data,omitempty"`
	// Name is the human-facing name: the unit description's Name, a
	// Data-Unit's logical object name, a graph node name.
	Name string `json:"name,omitempty"`

	// State is the entered state's RADICAL-Pilot-style name on the
	// *-state kinds.
	State string `json:"state,omitempty"`
	// Policy names the deciding policy on KindBind (unit scheduler)
	// and KindAutoscale (autoscale policy).
	Policy string `json:"policy,omitempty"`
	// Op refines KindHold/KindRelease/KindCache/KindReplica.
	Op string `json:"op,omitempty"`

	// Cores is the unit's core demand on unit events.
	Cores int `json:"cores,omitempty"`
	// Delta and Applied are the autoscaler's raw and clamped node
	// deltas; Nodes the capacity the decision was made against.
	Delta   int `json:"delta,omitempty"`
	Applied int `json:"applied,omitempty"`
	Nodes   int `json:"nodes,omitempty"`
	// Waiting and Running are demand unit counts on KindAutoscale;
	// Waiting doubles as the released-waiter count on KindCache
	// "complete" events.
	Waiting int `json:"waiting,omitempty"`
	Running int `json:"running,omitempty"`
	// Bytes is the data size on data events.
	Bytes int64 `json:"bytes,omitempty"`
	// Critical is the node's critical-path length on KindGraphAdmit.
	Critical float64 `json:"critical,omitempty"`
	// Detail is free-form context: a bind rationale, a failure cause,
	// a Tracef message.
	Detail string `json:"detail,omitempty"`
}

// Recorder captures events and gauge samples at virtual time. Create
// one with NewRecorder and attach it to a session with
// pilot.WithRecorder (or Session.AttachRecorder before building
// managers). Events are kept in a block log: recording never copies
// what is already recorded. A Recorder is not safe for concurrent use —
// like everything else on a sim.Engine, the kernel serializes access.
type Recorder struct {
	eng    *sim.Engine
	events blockLog[Event]
	counts map[Kind]int
	series Series
	hooks  []func(Event)
}

// NewRecorder creates a recorder stamping events with eng's virtual
// clock, and routes the engine's Tracef lines through it (satisfying
// "engine-level events land in the same timeline"): any SetTrace
// writer keeps working alongside.
func NewRecorder(eng *sim.Engine) *Recorder {
	r := &Recorder{eng: eng, counts: make(map[Kind]int)}
	eng.SetTraceFunc(func(at time.Duration, msg string) {
		r.Record(Event{Kind: KindTrace, Detail: msg})
	})
	return r
}

// Record stamps ev with the next sequence number and the current
// virtual time, appends it, and hands the stamped event to every
// OnRecord hook.
func (r *Recorder) Record(ev Event) {
	ev.Seq = r.events.n
	ev.At = r.eng.Now()
	r.events.add(ev)
	r.counts[ev.Kind]++
	for _, fn := range r.hooks {
		fn(ev)
	}
}

// OnRecord registers fn to run on every subsequently recorded event,
// after stamping — the live tail of the stream. This is how the metrics
// Bridge single-sources its instruments from the recorder without the
// recorder knowing about registries. Hooks run on the simulation
// goroutine; whatever they update must be safe to read from elsewhere.
func (r *Recorder) OnRecord(fn func(Event)) {
	r.hooks = append(r.hooks, fn)
}

// Events returns the recorded events in record order, as one
// exact-size copy; mutating it does not disturb the recorder.
func (r *Recorder) Events() []Event { return r.events.all() }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return r.events.n }

// Count reports how many events of kind were recorded.
func (r *Recorder) Count(kind Kind) int { return r.counts[kind] }

// Series returns the recorder's gauge series — the ClusterView samples
// the Unit-Manager appends on scheduling events.
func (r *Recorder) Series() *Series { return &r.series }

// Sample appends a gauge sample stamped with the current virtual time.
func (r *Recorder) Sample(g GaugeSample) {
	g.At = r.eng.Now()
	r.series.Add(g)
}
