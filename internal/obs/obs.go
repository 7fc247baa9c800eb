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
// The recorder stores each event as a compact, fixed-size record with
// no pointers (eventRecord, 56 bytes), and the series each gauge sample
// as a 48-byte one, in append-only blocks (blockLog) that are never
// copied as the recording grows. Kinds, states and ops are one-byte
// enums; a unit's or Data-Unit's ID and name are stored once per
// entity, pilot IDs and policy names once per recorder in an intern
// table, and rare free text (failure causes, cache keys, Tracef lines)
// in a side table. Recording therefore allocates only when a block
// opens or a table grows, and the garbage collector never scans the log.
// Strings are built only at the edges: Events and Samples decode the
// log into one exact-size slice each (a decoded view: its strings are
// the tables' own), and the Chrome and JSONL exporters append their
// text straight to a buffered writer, the bind detail included.
//
// Recording is strictly opt-in: without a Recorder attached to the
// session (pilot.WithRecorder), the instrumented code paths pay a nil
// check and nothing else.
package obs

import (
	"strconv"
	"time"

	"repro/internal/sim"
)

// Kind classifies an Event. It is a small enum, stored as one byte in
// the recorder's log; String gives the name exports and labels use. It
// is signed so that go vet flags a stray string(kind) conversion.
type Kind int8

// The event kinds a Recorder captures.
const (
	// KindUnitState marks a Compute-Unit entering a state. Unit and
	// State are set; Pilot names the bound pilot once one is.
	KindUnitState Kind = iota + 1
	// KindPilotState marks a pilot entering a state (including the
	// re-announced PMGR_ACTIVE after a resize).
	KindPilotState
	// KindDataState marks a Data-Unit entering a state.
	KindDataState
	// KindBind is a scheduler decision: the Unit-Manager bound Unit to
	// Pilot under Policy. Running and Nodes carry the load the policy
	// saw on that pilot: its cores in flight and its total cores.
	KindBind
	// KindHold marks a unit parking in a Unit-Manager hold state: Op
	// "input" for UMGR_PENDING_INPUT (unreplicated inputs), "result"
	// for UMGR_PENDING_RESULT (coalesced onto an in-flight leader).
	KindHold
	// KindRelease marks a held unit leaving its hold: Op "input" when
	// the last input replicated, "failed" when an input retired unread.
	KindRelease
	// KindAutoscale is an autoscaler verdict that asked for capacity
	// change: Delta is the policy's raw decision, Applied the clamped
	// delta actually requested, Nodes the capacity it decided on, and
	// Waiting/Running the demand snapshot it saw.
	KindAutoscale
	// KindCache is result-cache traffic: Op "hit", "coalesce", "lead",
	// "complete", "abort" or "requeue".
	KindCache
	// KindReplica is Data-Unit replica motion: Op "place",
	// "re-replicate", "cache" (opportunistic stage-in copy), "evict"
	// (cached copy drained) or "promote" (cached copy became a managed
	// replica). Pilot names the data pilot by label.
	KindReplica
	// KindStoreFail marks a data pilot killed by FailPilot; Bytes
	// carries the occupancy lost with it.
	KindStoreFail
	// KindGraphAdmit marks a UnitGraph node admitted to the
	// Unit-Manager; Critical carries its critical-path length.
	KindGraphAdmit
	// KindTrace is a free-form sim.Engine.Tracef line routed through
	// the recorder; Detail holds the formatted message. Only batch
	// queue, YARN and agent lines arrive this way: unit, pilot and
	// Data-Unit transitions, cache traffic, replica motion and store
	// failures are their typed events alone.
	KindTrace

	numKinds = iota + 1 // kinds, plus the zero Kind
)

// kindNames are the kinds' names, indexed by Kind.
var kindNames = [numKinds]string{"", "unit-state", "pilot-state", "data-state",
	"bind", "hold", "release", "autoscale", "cache", "replica", "store-fail",
	"graph-admit", "trace"}

// String returns the kind's name ("unit-state", "bind", ...); the zero
// Kind is "".
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText encodes the kind by its name, so an Event's JSON carries
// "kind":"bind", not a number.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one recorded observation. Only the fields a Kind documents
// are meaningful; the rest stay zero. The flat shape lets consumers
// filter without type switches. The recorder stores each event as a
// compact record and Events decodes it back.
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
	// deltas; Nodes the capacity the decision was made against. On
	// KindBind, Nodes is the bound pilot's total cores.
	Delta   int `json:"delta,omitempty"`
	Applied int `json:"applied,omitempty"`
	Nodes   int `json:"nodes,omitempty"`
	// Waiting and Running are demand unit counts on KindAutoscale;
	// Waiting doubles as the released-waiter count on KindCache
	// "complete" events, and Running as the bound pilot's cores in
	// flight (before the bind) on KindBind. The Chrome export renders a
	// bind's Running and Nodes as its "N/M cores in flight" detail.
	Waiting int `json:"waiting,omitempty"`
	Running int `json:"running,omitempty"`
	// Bytes is the data size on data events.
	Bytes int64 `json:"bytes,omitempty"`
	// Critical is the node's critical-path length on KindGraphAdmit.
	Critical float64 `json:"critical,omitempty"`
	// Detail is free-form context: a failure cause, a cache key, a
	// Tracef message.
	Detail string `json:"detail,omitempty"`
}

// Recorder captures events and gauge samples at virtual time. Create
// one with NewRecorder and attach it to a session with
// pilot.WithRecorder (or Session.AttachRecorder before building
// managers). A Recorder is not safe for concurrent use — like
// everything else on a sim.Engine, the kernel serializes access.
//
// Each event is stored as a 56-byte eventRecord with no pointers, in a
// block log that never copies what is already recorded, so recording
// allocates only when a block opens and the garbage collector never
// scans the log. The record's strings live in per-recorder tables: each
// unit's and Data-Unit's ID and name once per entity, pilot IDs,
// data-pilot labels and policy names in an intern table, states and
// ops in a one-byte table, and free text (failure causes, cache keys,
// Tracef lines) in a side table.
type Recorder struct {
	eng     *sim.Engine
	events  blockLog[eventRecord]
	ents    []entity         // unit and Data-Unit IDs with names; ents[0] is none
	entIdx  map[string]int32 // ID → its first entity
	strs    []string         // interned strings; strs[0] is ""
	strIdx  map[string]int32 // string → index in strs
	small   []string         // states and ops; small[0] is ""
	smallIx map[string]uint8
	texts   []string // Detail texts, indexed by eventRecord.detail-1
	raws    []Event  // events no record can hold, indexed by eventRecord.ent
	counts  [256]int // per Kind
	series  Series
	hooks   []func(Event)
}

// NewRecorder creates a recorder stamping events with eng's virtual
// clock, and routes the engine's Tracef lines through it (satisfying
// "engine-level events land in the same timeline"): any SetTrace
// writer keeps working alongside.
func NewRecorder(eng *sim.Engine) *Recorder {
	r := &Recorder{
		eng:     eng,
		ents:    []entity{{}},
		entIdx:  make(map[string]int32),
		strs:    []string{""},
		strIdx:  make(map[string]int32),
		small:   []string{""},
		smallIx: make(map[string]uint8),
	}
	eng.SetTraceFunc(func(at time.Duration, msg string) {
		r.Record(Event{Kind: KindTrace, Detail: msg})
	})
	return r
}

// Record stamps ev with the next sequence number and the current
// virtual time, stores it as a compact record, and hands the stamped
// event to every OnRecord hook. The stored record decodes to exactly
// the event the hooks receive.
func (r *Recorder) Record(ev Event) {
	ev.Seq = r.events.n
	ev.At = r.eng.Now()
	r.events.add(r.encode(&ev))
	r.counts[uint8(ev.Kind)]++
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

// Events decodes the log into Events in record order, as one new
// exact-size slice; mutating it does not disturb the recorder. Its
// strings are the recorder's own, so decoding allocates only the
// slice.
func (r *Recorder) Events() []Event {
	if r.events.n == 0 {
		return nil
	}
	out := make([]Event, r.events.n)
	i := 0
	for _, b := range r.events.blocks {
		for j := range b {
			r.decode(&b[j], i, &out[i])
			i++
		}
	}
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return r.events.n }

// Count reports how many events of kind were recorded.
func (r *Recorder) Count(kind Kind) int { return r.counts[uint8(kind)] }

// Series returns the recorder's gauge series — the ClusterView samples
// the Unit-Manager appends on scheduling events.
func (r *Recorder) Series() *Series { return &r.series }

// Sample appends a gauge sample stamped with the current virtual time.
func (r *Recorder) Sample(g GaugeSample) {
	g.At = r.eng.Now()
	r.series.Add(g)
}
