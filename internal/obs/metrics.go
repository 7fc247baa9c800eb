package obs

import (
	"time"

	"repro/internal/metrics"
)

// Bridge derives the standard labeled-instrument set from the flight
// recorder's Event stream, so the telemetry plane is single-sourced:
// code paths record events once and both the trace exporters and the
// /metrics exposition fall out of the same stream. Feed it live by
// hooking Apply into Recorder.OnRecord, or after the fact with
// MetricsFromEvents.
//
// The instrument set and its label conventions:
//
//	pilot_events_total{kind}                 counter  every recorded event
//	pilot_units_done{pilot,scheduler}        counter  units reaching DONE
//	pilot_units_failed{pilot}                counter  units reaching FAILED/CANCELED
//	pilot_units_running{pilot}               gauge    units in AGENT_EXECUTING
//	pilot_units_held                         gauge    units parked in hold states
//	bind_latency_seconds{pilot,scheduler}    histogram UMGR_SCHEDULING → bind
//	unit_duration_seconds{pilot}             histogram AGENT_EXECUTING → DONE
//	pilot_autoscale_total{pilot,policy}      counter  autoscaler verdicts applied
//	pilot_cache_ops_total{op}                counter  result-cache traffic
//	data_replica_ops_total{op,store}         counter  replica motion
//	data_replica_bytes_total{op,store}       counter  bytes moved by replica ops
//	data_store_failures_total{store}         counter  data pilots killed
//
// `pilot` label values are pilot IDs (`pilot.0001`); `store` values are
// data-pilot labels. Units completed straight from the result cache
// carry scheduler="cache" — no scheduler ever bound them.
//
// Apply must be called from one goroutine at a time (the simulation
// goroutine, when hooked into a recorder); the registry it updates is
// safe to scrape concurrently.
type Bridge struct {
	reg *metrics.Registry

	events       *metrics.Counter
	unitsDone    *metrics.Counter
	unitsFailed  *metrics.Counter
	unitsRunning *metrics.Gauge
	unitsHeld    metrics.GaugeChild
	bindLatency  *metrics.Histogram
	unitDuration *metrics.Histogram
	autoscale    *metrics.Counter
	cacheOps     *metrics.Counter
	replicaOps   *metrics.Counter
	replicaBytes *metrics.Counter
	storeFails   *metrics.Counter

	// Series the per-event path observes, each resolved on its first
	// observation (so exposition shows exactly the series observed):
	// pilot_events_total by kind, and the per-pilot set by pilot ID.
	kinds      [numKinds]*metrics.CounterChild
	pilots     []*pilotSeries
	pilotIdx   map[string]int32 // pilot ID → index in pilots
	schedulers []string         // scheduler names the tracks refer to

	// units maps each in-flight unit to its track in tracks; free lists
	// the tracks of finished units, for reuse.
	units  map[string]int32
	tracks []unitTrack
	free   []int32
}

// pilotSeries are one pilot's resolved series; a nil field is one not
// yet observed. scheds holds the series also labeled by scheduler, in
// order of first use (a pilot rarely sees more than one).
type pilotSeries struct {
	id       string
	running  *metrics.GaugeChild
	failed   *metrics.CounterChild
	duration *metrics.HistogramChild
	scheds   []*schedSeries
}

// schedSeries are one (pilot, scheduler) pair's resolved series.
type schedSeries struct {
	name    string
	done    *metrics.CounterChild
	latency *metrics.HistogramChild
}

// unitTrack is the per-unit state the bridge needs to turn state-event
// pairs into latencies, kept by value in the bridge's tracks. A unit's
// track is released at its final state, so the tracks stay bounded by
// in-flight units, not stream length.
type unitTrack struct {
	submitted    time.Duration
	executing    time.Duration
	pilot        int32 // index in pilots plus one; 0 until an event names one
	scheduler    int32 // index in schedulers plus one; 0 for none
	hasSubmitted bool
	hasExecuting bool
	cached       bool
}

// NewBridge declares the standard instrument set on reg and returns a
// bridge feeding it.
func NewBridge(reg *metrics.Registry) *Bridge {
	return &Bridge{
		reg: reg,
		events: reg.Counter("pilot_events_total",
			"flight-recorder events by kind", "kind"),
		unitsDone: reg.Counter("pilot_units_done",
			"compute units completed", "pilot", "scheduler"),
		unitsFailed: reg.Counter("pilot_units_failed",
			"compute units failed or canceled", "pilot"),
		unitsRunning: reg.Gauge("pilot_units_running",
			"compute units currently executing", "pilot"),
		unitsHeld: reg.Gauge("pilot_units_held",
			"compute units parked in Unit-Manager hold states").With(),
		bindLatency: reg.Histogram("bind_latency_seconds",
			"virtual seconds from UMGR_SCHEDULING to the scheduler bind",
			nil, "pilot", "scheduler"),
		unitDuration: reg.Histogram("unit_duration_seconds",
			"virtual seconds from AGENT_EXECUTING to DONE",
			nil, "pilot"),
		autoscale: reg.Counter("pilot_autoscale_total",
			"autoscaler verdicts that requested capacity change", "pilot", "policy"),
		cacheOps: reg.Counter("pilot_cache_ops_total",
			"result-cache traffic by operation", "op"),
		replicaOps: reg.Counter("data_replica_ops_total",
			"Data-Unit replica operations", "op", "store"),
		replicaBytes: reg.Counter("data_replica_bytes_total",
			"bytes moved by replica operations", "op", "store"),
		storeFails: reg.Counter("data_store_failures_total",
			"data pilots killed by failure injection", "store"),
		pilotIdx: make(map[string]int32),
		units:    make(map[string]int32),
	}
}

// Registry returns the registry the bridge feeds.
func (b *Bridge) Registry() *metrics.Registry { return b.reg }

// pilot returns the index plus one of pilot id's series set, creating
// it (with no series resolved) on first use.
func (b *Bridge) pilot(id string) int32 {
	i, ok := b.pilotIdx[id]
	if !ok {
		b.pilots = append(b.pilots, &pilotSeries{id: id})
		i = int32(len(b.pilots))
		b.pilotIdx[id] = i
	}
	return i
}

// schedulerRef returns the index plus one of scheduler name.
func (b *Bridge) schedulerRef(name string) int32 {
	for i, s := range b.schedulers {
		if s == name {
			return int32(i + 1)
		}
	}
	b.schedulers = append(b.schedulers, name)
	return int32(len(b.schedulers))
}

// sched returns the (pilot, scheduler) series set.
func (b *Bridge) sched(ps *pilotSeries, name string) *schedSeries {
	for _, ss := range ps.scheds {
		if ss.name == name {
			return ss
		}
	}
	ss := &schedSeries{name: name}
	ps.scheds = append(ps.scheds, ss)
	return ss
}

// track returns id's track, starting a zero one for a unit not in
// flight.
func (b *Bridge) track(id string) *unitTrack {
	i, ok := b.units[id]
	if !ok {
		if n := len(b.free); n > 0 {
			i, b.free = b.free[n-1], b.free[:n-1]
			b.tracks[i] = unitTrack{}
		} else {
			i = int32(len(b.tracks))
			b.tracks = append(b.tracks, unitTrack{})
		}
		b.units[id] = i
	}
	return &b.tracks[i]
}

// release drops id's track once the unit is final.
func (b *Bridge) release(id string) {
	b.free = append(b.free, b.units[id])
	delete(b.units, id)
}

// onPilot returns t's pilot series set, the unnamed pilot's while no
// event has named one.
func (b *Bridge) onPilot(t *unitTrack) *pilotSeries {
	if t.pilot == 0 {
		t.pilot = b.pilot("")
	}
	return b.pilots[t.pilot-1]
}

// Apply folds one event into the instrument set. Events must arrive in
// record order (they do, from OnRecord or a replayed Events() slice).
func (b *Bridge) Apply(ev Event) {
	if ev.Kind >= 0 && int(ev.Kind) < len(b.kinds) {
		c := b.kinds[ev.Kind]
		if c == nil {
			c = resolved(b.events.With(ev.Kind.String()))
			b.kinds[ev.Kind] = c
		}
		c.Inc()
	} else {
		b.events.Inc(ev.Kind.String())
	}
	switch ev.Kind {
	case KindUnitState:
		b.applyUnitState(&ev)
	case KindBind:
		t := b.track(ev.Unit)
		t.pilot = b.pilot(ev.Pilot)
		t.scheduler = b.schedulerRef(ev.Policy)
		if t.hasSubmitted {
			ss := b.sched(b.pilots[t.pilot-1], ev.Policy)
			if ss.latency == nil {
				ss.latency = resolved(b.bindLatency.With(ev.Pilot, ev.Policy))
			}
			ss.latency.Observe((ev.At - t.submitted).Seconds())
		}
	case KindHold:
		b.unitsHeld.Add(1)
	case KindRelease:
		b.unitsHeld.Add(-1)
	case KindAutoscale:
		if ev.Applied != 0 {
			b.autoscale.Inc(ev.Pilot, ev.Policy)
		}
	case KindCache:
		b.cacheOps.Inc(ev.Op)
		if ev.Op == "hit" || ev.Op == "coalesce" {
			b.track(ev.Unit).cached = true
		}
	case KindReplica:
		b.replicaOps.Inc(ev.Op, ev.Pilot)
		if ev.Bytes > 0 {
			b.replicaBytes.Add(float64(ev.Bytes), ev.Op, ev.Pilot)
		}
	case KindStoreFail:
		b.storeFails.Inc(ev.Pilot)
	}
}

// applyUnitState folds a Compute-Unit state transition.
func (b *Bridge) applyUnitState(ev *Event) {
	t := b.track(ev.Unit)
	if ev.Pilot != "" && (t.pilot == 0 || b.pilots[t.pilot-1].id != ev.Pilot) {
		t.pilot = b.pilot(ev.Pilot)
	}
	switch ev.State {
	case "UMGR_SCHEDULING":
		t.submitted = ev.At
		t.hasSubmitted = true
	case "AGENT_EXECUTING":
		t.executing = ev.At
		t.hasExecuting = true
		b.running(b.onPilot(t)).Add(1)
	case "DONE":
		sched := ""
		if t.scheduler != 0 {
			sched = b.schedulers[t.scheduler-1]
		}
		if sched == "" && t.cached {
			sched = "cache"
		}
		ps := b.onPilot(t)
		ss := b.sched(ps, sched)
		if ss.done == nil {
			ss.done = resolved(b.unitsDone.With(ps.id, sched))
		}
		ss.done.Inc()
		if t.hasExecuting {
			if ps.duration == nil {
				ps.duration = resolved(b.unitDuration.With(ps.id))
			}
			ps.duration.Observe((ev.At - t.executing).Seconds())
			b.running(ps).Add(-1)
		}
		b.release(ev.Unit)
	case "FAILED", "CANCELED":
		ps := b.onPilot(t)
		if ps.failed == nil {
			ps.failed = resolved(b.unitsFailed.With(ps.id))
		}
		ps.failed.Inc()
		if t.hasExecuting {
			b.running(ps).Add(-1)
		}
		b.release(ev.Unit)
	}
}

// running returns the pilot's pilot_units_running series.
func (b *Bridge) running(ps *pilotSeries) *metrics.GaugeChild {
	if ps.running == nil {
		ps.running = resolved(b.unitsRunning.With(ps.id))
	}
	return ps.running
}

// resolved moves a resolved series child to the heap, once per series.
func resolved[T any](c T) *T { return &c }

// MetricsFromEvents replays a recorded event stream through a fresh
// bridge and returns the populated registry — the after-the-fact path
// for streams already captured by a Recorder.
func MetricsFromEvents(events []Event) *metrics.Registry {
	reg := metrics.NewRegistry()
	b := NewBridge(reg)
	for _, ev := range events {
		b.Apply(ev)
	}
	return reg
}
