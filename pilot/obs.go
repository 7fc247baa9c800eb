package pilot

import (
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The flight-recorder types, re-exported as the public observability
// API. A Recorder attaches to a session with WithRecorder (or
// Session.AttachRecorder) and captures typed events at virtual time;
// see the package documentation's Observability section.
type (
	// Recorder captures typed events and live-gauge samples from every
	// manager of the session it is attached to.
	Recorder = obs.Recorder
	// TraceEvent is one recorded observation; EventKind classifies it.
	TraceEvent = obs.Event
	// EventKind classifies a TraceEvent.
	EventKind = obs.Kind
	// Series is the recorder's gauge time series, exportable as JSONL.
	Series = obs.Series
	// GaugeSample is one ClusterView reading in a Series.
	GaugeSample = obs.GaugeSample
	// TraceCell labels one event stream in a multi-cell Chrome trace.
	TraceCell = obs.Cell
)

// The event kinds a Recorder captures.
const (
	EventUnitState  = obs.KindUnitState
	EventPilotState = obs.KindPilotState
	EventDataState  = obs.KindDataState
	EventBind       = obs.KindBind
	EventHold       = obs.KindHold
	EventRelease    = obs.KindRelease
	EventAutoscale  = obs.KindAutoscale
	EventCache      = obs.KindCache
	EventReplica    = obs.KindReplica
	EventStoreFail  = obs.KindStoreFail
	EventGraphAdmit = obs.KindGraphAdmit
	// EventTrace is an engine Tracef line (batch queue, YARN, agent);
	// every fact a typed event records — unit, pilot and Data-Unit
	// transitions, cache traffic, replica motion — is that event only.
	EventTrace = obs.KindTrace
)

// NewRecorder creates a flight recorder stamping events with eng's
// virtual clock and folding the engine's Tracef lines into the same
// timeline. Attach it with WithRecorder.
func NewRecorder(eng *sim.Engine) *Recorder { return obs.NewRecorder(eng) }

// WriteChromeTrace renders a recorder's event stream as a Chrome
// trace-event JSON file viewable in Perfetto (ui.perfetto.dev): one
// span per DONE unit on its pilot's track, instants for binds,
// autoscale verdicts, cache traffic and store failures.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// WriteChromeTraceCells is WriteChromeTrace over several labeled cells
// in one file, each on its own process-ID range.
func WriteChromeTraceCells(w io.Writer, cells []TraceCell) error {
	return obs.WriteChromeTraceCells(w, cells)
}

// VerifyBinds checks the scheduler's recorder invariants on a
// failure-free run: every executed DONE unit bound exactly once, every
// cache-completed unit never bound.
func VerifyBinds(events []TraceEvent) error { return obs.VerifyBinds(events) }

// DoneUnits counts the distinct units whose event stream reached DONE —
// the span count WriteChromeTrace emits.
func DoneUnits(events []TraceEvent) int { return obs.DoneUnits(events) }
