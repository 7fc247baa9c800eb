package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// The Chrome exporter as it was first written, on encoding/json: the
// reference the streaming exporter must match byte for byte (see
// TestChromeTraceMatchesReference).

// refWriteChromeTraceCells renders cells the reference way: one
// refTraceEvent value with an args map per trace event, encoded in one
// go.
func refWriteChromeTraceCells(w io.Writer, cells []obs.Cell) error {
	var out []refTraceEvent
	nextPid := 1
	for _, c := range cells {
		out = append(out, refCellTraceEvents(c, &nextPid)...)
	}
	if out == nil {
		out = []refTraceEvent{} // an empty trace still parses
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(refTraceFile{TraceEvents: out, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: chrome trace encode: %w", err)
	}
	return nil
}

// refTraceEvent is one Chrome trace-event JSON object (the subset the
// exporter emits: "X" complete spans, "i" instants, "M" metadata).
// Timestamps and durations are microseconds, per the format.
type refTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// refTraceFile is the JSON Object Format envelope.
type refTraceFile struct {
	TraceEvents     []refTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// refUnitTimeline accumulates one unit's state entries while scanning a
// cell's events.
type refUnitTimeline struct {
	id     string
	name   string
	pilot  string
	cached bool
	states map[string]time.Duration
}

// refSpan is one laid-out unit execution.
type refSpan struct {
	unit       *refUnitTimeline
	start, end time.Duration
}

// refCellTraceEvents renders one cell: spans per DONE unit grouped by
// pilot, instants for decisions, metadata naming each group.
func refCellTraceEvents(c obs.Cell, nextPid *int) []refTraceEvent {
	units := make(map[string]*refUnitTimeline)
	var order []*refUnitTimeline
	lookup := func(id string) *refUnitTimeline {
		u, ok := units[id]
		if !ok {
			u = &refUnitTimeline{id: id, states: make(map[string]time.Duration)}
			units[id] = u
			order = append(order, u)
		}
		return u
	}
	var instants []obs.Event
	for _, ev := range c.Events {
		switch ev.Kind {
		case obs.KindUnitState:
			u := lookup(ev.Unit)
			if _, dup := u.states[ev.State]; !dup {
				u.states[ev.State] = ev.At
			}
			if ev.Pilot != "" {
				u.pilot = ev.Pilot
			}
			if ev.Name != "" {
				u.name = ev.Name
			}
		case obs.KindCache:
			if ev.Op == "hit" || ev.Op == "coalesce" {
				lookup(ev.Unit).cached = true
			}
			instants = append(instants, ev)
		case obs.KindBind, obs.KindAutoscale, obs.KindStoreFail:
			instants = append(instants, ev)
		}
	}

	// One span per DONE unit: executing→DONE, or zero-length at DONE
	// for units that never executed (cache completions).
	byTrack := make(map[string][]refSpan)
	var trackOrder []string
	track := func(name string) []refSpan {
		if _, ok := byTrack[name]; !ok {
			byTrack[name] = nil
			trackOrder = append(trackOrder, name)
		}
		return byTrack[name]
	}
	for _, u := range order {
		done, ok := u.states["DONE"]
		if !ok {
			continue
		}
		start, ran := u.states["AGENT_EXECUTING"]
		if !ran {
			start = done
		}
		tr := u.pilot
		if tr == "" {
			tr = "unbound"
		}
		byTrack[tr] = append(track(tr), refSpan{unit: u, start: start, end: done})
	}

	// Instants land on track 0 of the group they concern; groups that
	// only ever see instants (a failed store's label) still render.
	instantTrack := func(ev obs.Event) string {
		if ev.Pilot != "" {
			return ev.Pilot
		}
		return "events"
	}
	for _, ev := range instants {
		track(instantTrack(ev))
	}

	var out []refTraceEvent
	pids := make(map[string]int)
	for _, tr := range trackOrder {
		pid := *nextPid
		*nextPid++
		pids[tr] = pid
		label := tr
		if c.Label != "" {
			label = c.Label + "/" + tr
		}
		out = append(out, refTraceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": label},
		})
		spans := byTrack[tr]
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].unit.id < spans[j].unit.id
		})
		// Greedy lane assignment: each span takes the first lane free
		// at its start, so concurrent units stack on separate tids.
		var laneEnd []time.Duration
		for _, s := range spans {
			lane := -1
			for i, end := range laneEnd {
				if end <= s.start {
					lane = i
					break
				}
			}
			if lane == -1 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = s.end
			name := s.unit.name
			if name == "" {
				name = s.unit.id
			}
			dur := refMicros(s.end - s.start)
			args := map[string]any{"unit": s.unit.id}
			if s.unit.cached {
				args["cached"] = true
			}
			out = append(out, refTraceEvent{
				Name: name, Cat: "unit", Ph: "X",
				Ts: refMicros(s.start), Dur: &dur,
				Pid: pids[tr], Tid: lane + 1, Args: args,
			})
		}
	}
	for _, ev := range instants {
		name := ev.Kind.String()
		if ev.Op != "" {
			name += ":" + ev.Op
		}
		args := map[string]any{}
		if ev.Unit != "" {
			args["unit"] = ev.Unit
		}
		if ev.Policy != "" {
			args["policy"] = ev.Policy
		}
		if ev.Applied != 0 {
			args["applied"] = ev.Applied
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		} else if ev.Kind == obs.KindBind {
			args["detail"] = fmt.Sprintf("%d/%d cores in flight", ev.Running, ev.Nodes)
		}
		out = append(out, refTraceEvent{
			Name: name, Cat: ev.Kind.String(), Ph: "i", S: "p",
			Ts: refMicros(ev.At), Pid: pids[instantTrack(ev)], Tid: 0,
			Args: args,
		})
	}
	return out
}

// refMicros converts virtual time to trace microseconds.
func refMicros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
