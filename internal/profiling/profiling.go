// Package profiling analyzes pilot and unit state timelines — the
// counterpart of RADICAL-Analytics in the RADICAL-Pilot ecosystem. It
// decomposes unit time-to-completion into per-state durations (where did
// the time go: scheduling, staging, launching, executing?) and computes
// concurrency and utilization series, the quantities behind the paper's
// overhead discussion.
//
// The decomposition has one source: a flight recorder's event stream,
// whose unit state-entry events ProfileFromEvents and SpansFromEvents
// fold into per-unit timelines — so a serialized trace or a finished
// experiment cell profiles exactly like a live session.
package profiling

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/pilot"
)

// Phase is one segment of a unit's lifetime.
type Phase string

// The phases a Compute-Unit's time divides into.
const (
	// PhaseHeld is time parked in the Unit-Manager's hold states —
	// UMGR_PENDING_INPUT (inputs not yet replicated) and
	// UMGR_PENDING_RESULT (coalesced onto an in-flight identical unit) —
	// before scheduling proper begins. Held time is attributed, never
	// silently dropped.
	PhaseHeld        Phase = "held"
	PhaseUnitManager Phase = "unit-manager" // submission to agent pickup
	PhaseScheduling  Phase = "agent-scheduling"
	// PhaseStagingAndLaunch spans input staging through executable
	// start; for YARN units it contains the whole two-stage container
	// allocation and wrapper setup, which is where the Figure 5 inset
	// seconds live.
	PhaseStagingAndLaunch Phase = "staging+launch"
	PhaseExecuting        Phase = "executing"
	PhaseStagingOut       Phase = "staging-output"
)

// Phases lists the phases in lifecycle order.
var Phases = []Phase{
	PhaseHeld, PhaseUnitManager, PhaseScheduling, PhaseStagingAndLaunch,
	PhaseExecuting, PhaseStagingOut,
}

// milestones are the states whose entry marks a phase boundary, in
// lifecycle order, each with the phase the time *after* it belongs to.
// The decomposition walks the milestones actually present in a unit's
// timeline and attributes the gap between consecutive present ones to
// the earlier one's phase — so skipped states (a unit with no inputs
// never enters AGENT_STAGING_INPUT; a cache-completed unit never
// executes) hand their span to the preceding phase instead of losing it.
var milestones = []struct {
	state pilot.UnitState
	phase Phase
}{
	{pilot.UnitPendingResult, PhaseHeld},
	{pilot.UnitPendingInput, PhaseHeld},
	{pilot.UnitSchedulingUM, PhaseUnitManager},
	{pilot.UnitPendingAgent, PhaseUnitManager},
	{pilot.UnitSchedulingAgent, PhaseScheduling},
	{pilot.UnitStagingInput, PhaseStagingAndLaunch},
	{pilot.UnitExecuting, PhaseExecuting},
	{pilot.UnitStagingOutput, PhaseStagingOut},
}

// Breakdown is a per-phase duration decomposition.
type Breakdown map[Phase]time.Duration

// Total sums all phases.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// breakdownFromEntries decomposes one unit's recorded state-entry
// times, keyed by state name (one value of timelines). It refuses a unit
// that never reached DONE. Every phase is present in the result (zero
// when skipped); gaps between consecutive present milestones go to the
// earlier milestone's phase and the final present milestone runs to
// DONE, so the phases cover the whole span from the first recorded
// milestone to DONE — hold time and cache-completed lifetimes are
// attributed, not dropped.
func breakdownFromEntries(unit string, entry map[string]time.Duration) (Breakdown, error) {
	done, ok := entry[pilot.UnitDone.String()]
	if !ok {
		return nil, fmt.Errorf("profiling: unit %s never reached DONE in the event stream", unit)
	}
	b := make(Breakdown, len(Phases))
	for _, ph := range Phases {
		b[ph] = 0
	}
	type point struct {
		at    time.Duration
		phase Phase
	}
	var pts []point
	for _, m := range milestones {
		if at, ok := entry[m.state.String()]; ok {
			pts = append(pts, point{at, m.phase})
		}
	}
	for i, pt := range pts {
		end := done
		if i+1 < len(pts) {
			end = pts[i+1].at
		}
		if end > pt.at {
			b[pt.phase] += end - pt.at
		}
	}
	return b, nil
}

// Profile aggregates breakdowns over a set of units.
type Profile struct {
	Units  int
	Phases map[Phase]*metrics.Sample
}

// Write renders the aggregate table.
func (p *Profile) Write(w io.Writer) {
	fmt.Fprintf(w, "Unit time breakdown (%d units)\n", p.Units)
	t := metrics.NewTable("phase", "mean (s)", "std (s)", "max (s)")
	for _, ph := range Phases {
		s := p.Phases[ph]
		if s.N() == 0 {
			continue
		}
		t.AddRow(string(ph), metrics.Seconds(s.Mean()), metrics.Seconds(s.Std()), metrics.Seconds(s.Max()))
	}
	t.Write(w)
}

// Span is a [start, end) execution interval.
type Span struct {
	Start, End time.Duration
}

// timelines reduces a flight recorder's event stream to per-unit
// state-entry times: unit ID → state name → entry time (first entry
// wins, matching Unit.Timestamps' forward-only semantics).
func timelines(events []obs.Event) map[string]map[string]time.Duration {
	tl := make(map[string]map[string]time.Duration)
	for _, ev := range events {
		if ev.Kind != obs.KindUnitState || ev.Unit == "" {
			continue
		}
		m := tl[ev.Unit]
		if m == nil {
			m = make(map[string]time.Duration)
			tl[ev.Unit] = m
		}
		if _, seen := m[ev.State]; !seen {
			m[ev.State] = ev.At
		}
	}
	return tl
}

// ProfileFromEvents aggregates the breakdowns of every unit in a flight
// recorder's event stream. Units that never reached DONE are skipped
// and counted.
func ProfileFromEvents(events []obs.Event) (*Profile, int) {
	p := &Profile{Phases: make(map[Phase]*metrics.Sample)}
	for _, ph := range Phases {
		p.Phases[ph] = &metrics.Sample{}
	}
	tl := timelines(events)
	ids := make([]string, 0, len(tl))
	for id := range tl {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	skipped := 0
	for _, id := range ids {
		b, err := breakdownFromEntries(id, tl[id])
		if err != nil {
			skipped++
			continue
		}
		p.Units++
		for ph, d := range b {
			p.Phases[ph].Add(d)
		}
	}
	return p, skipped
}

// SpansFromEvents extracts the executing intervals of a flight
// recorder's event stream, sorted by start, feeding MaxConcurrency and
// Utilization.
func SpansFromEvents(events []obs.Event) []Span {
	var spans []Span
	for _, entry := range timelines(events) {
		start, ok1 := entry[pilot.UnitExecuting.String()]
		end, ok2 := entry[pilot.UnitStagingOutput.String()]
		if !ok2 {
			end, ok2 = entry[pilot.UnitDone.String()]
		}
		if ok1 && ok2 && end > start {
			spans = append(spans, Span{Start: start, End: end})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// MaxConcurrency returns the peak number of simultaneously executing
// spans.
func MaxConcurrency(spans []Span) int {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // ends before starts at ties
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Utilization returns the fraction of capacity·makespan actually spent
// executing: sum(span lengths) / (capacity × (lastEnd − firstStart)).
func Utilization(spans []Span, capacity int) float64 {
	if len(spans) == 0 || capacity <= 0 {
		return 0
	}
	var busy time.Duration
	first, last := spans[0].Start, spans[0].End
	for _, s := range spans {
		busy += s.End - s.Start
		if s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	window := last - first
	if window <= 0 {
		return 0
	}
	return busy.Seconds() / (float64(capacity) * window.Seconds())
}

// PilotOverhead summarizes a pilot's startup composition.
type PilotOverhead struct {
	QueueWait    sim.Duration
	AgentStartup sim.Duration
	HadoopSpawn  sim.Duration
}

// PilotProfile extracts the startup overheads of a pilot.
func PilotProfile(pl *pilot.Pilot) PilotOverhead {
	return PilotOverhead{
		QueueWait:    pl.QueueWait(),
		AgentStartup: pl.AgentStartup(),
		HadoopSpawn:  pl.HadoopSpawnTime,
	}
}
