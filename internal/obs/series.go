package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// GaugeSample is one reading of the live gauges: the ClusterView
// sampled on a scheduling-event generation tick. StoreFree maps each
// attached data pilot's label to its store's remaining capacity (-1
// for an unbounded store).
type GaugeSample struct {
	// At is the virtual time of the sample; Cell labels the
	// experiment cell when written through WriteJSONL.
	At   time.Duration `json:"-"`
	Cell string        `json:"cell,omitempty"`
	// T is At in seconds, the JSONL representation.
	T float64 `json:"t"`

	// QueueDepth is the waiting (bindable, not yet executing) unit
	// count; WaitingCores their summed demand.
	QueueDepth   int `json:"queue_depth"`
	WaitingCores int `json:"waiting_cores"`
	// HeldUnits/HeldCores count units parked in UMGR_PENDING_INPUT.
	HeldUnits int `json:"held_units"`
	HeldCores int `json:"held_cores"`
	// RunningUnits/RunningCores count executing units.
	RunningUnits int `json:"running_units"`
	RunningCores int `json:"running_cores"`
	// TotalCores is the live pilots' summed core capacity;
	// Utilization is RunningCores/TotalCores (0 when capacity is 0).
	TotalCores  int     `json:"total_cores"`
	Utilization float64 `json:"utilization"`
	// CacheEntries/CacheBytes are the result cache's completed-entry
	// gauges (zero without WithResultCache).
	CacheEntries int   `json:"cache_entries,omitempty"`
	CacheBytes   int64 `json:"cache_bytes,omitempty"`
	// StoreFree maps data-pilot labels to free bytes (-1: unbounded).
	StoreFree map[string]int64 `json:"store_free,omitempty"`
}

// Series is an append-only sequence of gauge samples in time order,
// kept in a block log like the recorder's events.
type Series struct {
	samples blockLog[GaugeSample]
}

// Add appends a sample.
func (s *Series) Add(g GaugeSample) { s.samples.add(g) }

// Len reports the number of samples.
func (s *Series) Len() int { return s.samples.n }

// Samples returns the samples in record order, as one exact-size copy.
func (s *Series) Samples() []GaugeSample { return s.samples.all() }

// Last returns the most recent sample (zero when empty).
func (s *Series) Last() GaugeSample { return s.samples.last() }

// WriteJSONL renders the series as one JSON object per line, each
// carrying the cell label (omitted when empty) and the sample time as
// seconds in "t" — the shape plotting scripts consume directly.
func (s *Series) WriteJSONL(w io.Writer, cell string) error {
	enc := json.NewEncoder(w)
	for _, b := range s.samples.blocks {
		for _, g := range b {
			g.Cell = cell
			g.T = g.At.Seconds()
			if err := enc.Encode(g); err != nil {
				return fmt.Errorf("obs: series encode: %w", err)
			}
		}
	}
	return nil
}
