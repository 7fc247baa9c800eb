package experiments

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/sim"
	"repro/pilot"
)

// Tap collects flight-recorder output from every experiment cell run
// while it is installed (SetTap): each cell contributes its labeled
// event stream and gauge series, and the whole session exports as one
// Chrome trace file and one gauge JSONL — the cmd/repro -trace/-series
// surface.
type Tap struct {
	mu    sync.Mutex
	cells []tapCell
}

type tapCell struct {
	label  string
	events []pilot.TraceEvent
	series *pilot.Series
}

var (
	tapMu        sync.Mutex
	installedTap *Tap
	installedReg *pilot.MetricsRegistry
)

// SetTap installs t as the destination for recorder output from every
// subsequently run experiment; nil uninstalls. Cells that always record
// (dag, cache — they verify scheduler invariants on their own streams)
// only publish their streams while a tap is installed.
func SetTap(t *Tap) {
	tapMu.Lock()
	installedTap = t
	tapMu.Unlock()
}

func getTap() *Tap {
	tapMu.Lock()
	defer tapMu.Unlock()
	return installedTap
}

// SetMetricsRegistry installs reg as the live telemetry destination:
// every subsequently run experiment cell bridges its recorder's event
// stream into it, so a /metrics endpoint serving reg shows the whole
// session's accounting accumulate across cells. nil uninstalls.
func SetMetricsRegistry(reg *pilot.MetricsRegistry) {
	tapMu.Lock()
	installedReg = reg
	tapMu.Unlock()
}

func getMetricsRegistry() *pilot.MetricsRegistry {
	tapMu.Lock()
	defer tapMu.Unlock()
	return installedReg
}

// recorderHook, when set, sees every recorder tapRecorder attaches
// before its cell runs, so a test can watch the live stream.
var recorderHook func(*pilot.Recorder)

// tapRecorder attaches a fresh flight recorder to the session when
// always is set (cells whose own checks audit the stream) or a tap or
// metrics registry is installed, and bridges its stream into the
// installed registry, if any. Otherwise it returns nil and the run is
// unobserved (the opt-in contract).
func tapRecorder(eng *sim.Engine, s *pilot.Session, always bool) *pilot.Recorder {
	reg := getMetricsRegistry()
	if !always && getTap() == nil && reg == nil {
		return nil
	}
	rec := pilot.NewRecorder(eng)
	s.AttachRecorder(rec)
	if recorderHook != nil {
		recorderHook(rec)
	}
	if reg != nil {
		rec.OnRecord(pilot.NewMetricsBridge(reg).Apply)
	}
	return rec
}

// tapCommit publishes one finished cell's stream to the installed tap;
// a nil recorder or no tap is a no-op, so cells call it unconditionally.
func tapCommit(label string, rec *pilot.Recorder) {
	t := getTap()
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	t.cells = append(t.cells, tapCell{label: label, events: rec.Events(), series: rec.Series()})
	t.mu.Unlock()
}

// Cells returns how many experiment cells have published streams.
func (t *Tap) Cells() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cells)
}

// Events returns the number of recorded events across all cells.
func (t *Tap) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.cells {
		n += len(c.events)
	}
	return n
}

// WriteChromeTrace renders every collected cell into one Chrome
// trace-event JSON file, each cell on its own process-ID range.
func (t *Tap) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	cells := make([]pilot.TraceCell, len(t.cells))
	for i, c := range t.cells {
		cells[i] = pilot.TraceCell{Label: c.label, Events: c.events}
	}
	t.mu.Unlock()
	return pilot.WriteChromeTraceCells(w, cells)
}

// WriteSeriesJSONL streams every collected cell's gauge samples as
// JSON Lines, one object per sample, tagged with the cell label.
func (t *Tap) WriteSeriesJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cells {
		if c.series == nil {
			continue
		}
		if err := c.series.WriteJSONL(w, c.label); err != nil {
			return fmt.Errorf("cell %s: %w", c.label, err)
		}
	}
	return nil
}
