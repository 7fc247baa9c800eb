package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"
)

// Cell is one experiment cell's event stream, rendered as its own
// process group in the Chrome trace so cells compared side by side
// (critical-path vs FIFO, cached vs uncached) land on separate tracks.
type Cell struct {
	Label  string
	Events []Event
}

// DoneUnits counts the distinct Compute-Units whose event stream
// reports a DONE state — exactly the spans WriteChromeTrace emits.
func DoneUnits(events []Event) int {
	done := make(map[string]struct{}, countDone(events))
	for i := range events {
		if ev := &events[i]; ev.Kind == KindUnitState && ev.State == "DONE" {
			done[ev.Unit] = struct{}{}
		}
	}
	return len(done)
}

// countDone counts the DONE unit-state events: the number of distinct
// units a reader tracks, on a stream where each unit finishes once. The
// readers size their maps to it up front.
func countDone(events []Event) int {
	n := 0
	for i := range events {
		if ev := &events[i]; ev.Kind == KindUnitState && ev.State == "DONE" {
			n++
		}
	}
	return n
}

// WriteChromeTrace renders one event stream as a Chrome trace-event
// JSON file, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Every unit that reached DONE becomes one complete
// ("X") span on its pilot's process group — executing start to DONE,
// or a zero-length span at completion time for units served from the
// result cache without executing — laid out on greedily assigned
// lanes (tids) so overlapping units stack instead of overdrawing.
// Binds, autoscale verdicts, cache traffic and store failures become
// instant ("i") events on track 0 of the group they concern.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return WriteChromeTraceCells(w, []Cell{{Events: events}})
}

// WriteChromeTraceCells is WriteChromeTrace over several cells in one
// file; each cell's tracks get their own pid range and are labeled
// "<cell>/<pilot>" through process_name metadata.
//
// The file is streamed: each trace event is appended straight to a
// buffered writer, byte for byte as encoding/json would encode it
// (compact, keys in declaration order, args keys sorted, HTML-safe
// strings), without building the events or their args maps first.
func WriteChromeTraceCells(w io.Writer, cells []Cell) error {
	cw := chromeWriter{w: bufio.NewWriter(w)}
	cw.w.WriteString(`{"traceEvents":[`)
	nextPid := 1
	for _, c := range cells {
		cw.cell(c, &nextPid)
	}
	cw.w.WriteString(`],"displayTimeUnit":"ms"}` + "\n")
	// The bufio.Writer keeps the first write error; Flush returns it.
	if err := cw.w.Flush(); err != nil {
		return fmt.Errorf("obs: chrome trace encode: %w", err)
	}
	return nil
}

// unitTimeline is what one unit contributes to the trace: its first
// AGENT_EXECUTING and DONE times, and the last name and pilot its
// state events carried.
type unitTimeline struct {
	id, name, pilot string
	cached          bool
	ran, finished   bool
	start, done     time.Duration
}

// span is one laid-out unit execution: an index into the cell's
// timelines.
type span struct {
	unit       int
	start, end time.Duration
}

// micros converts virtual time to trace microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// exactMicros bounds the durations appendMicros writes as decimals:
// below 2^40 µs, doubles are spaced under 0.001 apart, so the shortest
// decimal that round-trips micros(d) is d/1000 itself.
const exactMicros = time.Duration(1<<40) * time.Microsecond

// appendMicros appends micros(d) as appendFloat would, writing d/1000
// in decimal with its trailing zeros trimmed instead of running the
// float formatter.
func appendMicros(b []byte, d time.Duration) []byte {
	if d <= -exactMicros || d >= exactMicros {
		return appendFloat(b, micros(d))
	}
	if d < 0 {
		b = append(b, '-')
		d = -d
	}
	b = strconv.AppendInt(b, int64(d/time.Microsecond), 10)
	frac := int(d % time.Microsecond)
	if frac == 0 {
		return b
	}
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	return b
}

// isInstant reports whether ev renders as an instant on its group's
// track 0.
func isInstant(ev *Event) bool {
	switch ev.Kind {
	case KindBind, KindAutoscale, KindStoreFail, KindCache:
		return true
	}
	return false
}

// instantTrack names the group an instant lands on; groups that only
// ever see instants (a failed store's label) still render.
func instantTrack(ev *Event) string {
	if ev.Pilot != "" {
		return ev.Pilot
	}
	return "events"
}

// chromeWriter streams trace events; b is the scratch buffer each one
// is assembled in before it goes to w.
type chromeWriter struct {
	w *bufio.Writer
	b []byte
	n int // trace events written so far
}

// cell renders one cell: spans per DONE unit grouped by pilot, then
// instants for decisions, with metadata naming each group ahead of its
// spans.
func (cw *chromeWriter) cell(c Cell, nextPid *int) {
	n := countDone(c.Events)
	units := make(map[string]int, n)
	tl := make([]unitTimeline, 0, n)
	lookup := func(id string) *unitTimeline {
		i, ok := units[id]
		if !ok {
			i = len(tl)
			units[id] = i
			tl = append(tl, unitTimeline{id: id})
		}
		return &tl[i]
	}
	for i := range c.Events {
		ev := &c.Events[i]
		switch ev.Kind {
		case KindUnitState:
			u := lookup(ev.Unit)
			switch {
			case ev.State == "AGENT_EXECUTING" && !u.ran:
				u.ran, u.start = true, ev.At
			case ev.State == "DONE" && !u.finished:
				u.finished, u.done = true, ev.At
			}
			if ev.Pilot != "" {
				u.pilot = ev.Pilot
			}
			if ev.Name != "" {
				u.name = ev.Name
			}
		case KindCache:
			if ev.Op == "hit" || ev.Op == "coalesce" {
				lookup(ev.Unit).cached = true
			}
		}
	}

	// One span per DONE unit: executing→DONE, or zero-length at DONE
	// for units that never executed (cache completions). Groups are
	// numbered in order of first appearance: span groups in unit
	// order, then groups only instants reach.
	pids := make(map[string]int)
	var tracks []string
	var byTrack [][]span
	track := func(name string) int {
		pid, ok := pids[name]
		if !ok {
			pid = *nextPid + len(tracks)
			pids[name] = pid
			tracks = append(tracks, name)
			byTrack = append(byTrack, nil)
		}
		return pid - *nextPid
	}
	for i := range tl {
		u := &tl[i]
		if !u.finished {
			continue
		}
		start := u.done
		if u.ran {
			start = u.start
		}
		tr := u.pilot
		if tr == "" {
			tr = "unbound"
		}
		k := track(tr)
		byTrack[k] = append(byTrack[k], span{unit: i, start: start, end: u.done})
	}
	for i := range c.Events {
		if ev := &c.Events[i]; isInstant(ev) {
			track(instantTrack(ev))
		}
	}

	for k, tr := range tracks {
		pid := *nextPid + k
		label := tr
		if c.Label != "" {
			label = c.Label + "/" + tr
		}
		cw.meta(pid, label)
		spans := byTrack[k]
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return tl[spans[i].unit].id < tl[spans[j].unit].id
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
			cw.span(&tl[s.unit], s, pid, lane+1)
		}
	}
	for i := range c.Events {
		if ev := &c.Events[i]; isInstant(ev) {
			cw.instant(ev, pids[instantTrack(ev)])
		}
	}
	*nextPid += len(tracks)
}

// begin starts a trace event with the fields every kind carries ahead
// of the optional ones: name, cat (omitted when empty), ph and ts.
func (cw *chromeWriter) begin(name, cat, ph string, ts time.Duration) []byte {
	b := cw.b[:0]
	if cw.n > 0 {
		b = append(b, ',')
	}
	cw.n++
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, cat)
	}
	b = append(b, `,"ph":`...)
	b = appendString(b, ph)
	b = append(b, `,"ts":`...)
	return appendMicros(b, ts)
}

// ids appends the pid and tid fields.
func ids(b []byte, pid, tid int) []byte {
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// end closes the trace event and hands it to the buffered writer.
func (cw *chromeWriter) end(b []byte) {
	b = append(b, '}')
	cw.w.Write(b)
	cw.b = b
}

// meta writes the process_name metadata record labeling group pid.
func (cw *chromeWriter) meta(pid int, label string) {
	b := cw.begin("process_name", "", "M", 0)
	b = ids(b, pid, 0)
	b = append(b, `,"args":{"name":`...)
	b = appendString(b, label)
	cw.end(append(b, '}'))
}

// span writes one unit's complete ("X") span on lane tid of group pid.
func (cw *chromeWriter) span(u *unitTimeline, s span, pid, tid int) {
	name := u.name
	if name == "" {
		name = u.id
	}
	b := cw.begin(name, "unit", "X", s.start)
	b = append(b, `,"dur":`...)
	b = appendMicros(b, s.end-s.start)
	b = ids(b, pid, tid)
	b = append(b, `,"args":{`...)
	if u.cached {
		b = append(b, `"cached":true,`...)
	}
	b = append(b, `"unit":`...)
	b = appendString(b, u.id)
	cw.end(append(b, '}'))
}

// instant writes ev as an instant ("i") on track 0 of group pid. Its
// args appear in sorted key order, as encoding/json writes a map, and
// the object is omitted when ev carries none of them.
func (cw *chromeWriter) instant(ev *Event, pid int) {
	kind := ev.Kind.String()
	name := kind
	if ev.Op != "" {
		name += ":" + ev.Op
	}
	b := cw.begin(name, kind, "i", ev.At)
	b = ids(b, pid, 0)
	b = append(b, `,"s":"p"`...)
	next := `,"args":{"`
	if ev.Applied != 0 {
		b = append(append(b, next...), `applied":`...)
		b = strconv.AppendInt(b, int64(ev.Applied), 10)
		next = `,"`
	}
	switch {
	case ev.Detail != "":
		b = append(append(b, next...), `detail":`...)
		b = appendString(b, ev.Detail)
		next = `,"`
	case ev.Kind == KindBind:
		// A bind's detail is the load it was decided on.
		b = append(append(b, next...), `detail":"`...)
		b = strconv.AppendInt(b, int64(ev.Running), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(ev.Nodes), 10)
		b = append(b, ` cores in flight"`...)
		next = `,"`
	}
	if ev.Policy != "" {
		b = append(append(b, next...), `policy":`...)
		b = appendString(b, ev.Policy)
		next = `,"`
	}
	if ev.Unit != "" {
		b = append(append(b, next...), `unit":`...)
		b = appendString(b, ev.Unit)
		next = `,"`
	}
	if next == `,"` {
		b = append(b, '}')
	}
	cw.end(b)
}

// appendString appends s as encoding/json encodes a string. Printable
// ASCII other than the characters it escapes — every ID, state and
// policy name the stack records — is copied as is; any other string
// goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json encodes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent not zero-padded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
