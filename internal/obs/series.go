package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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
// kept in a block log like the recorder's events and, like them, in a
// compact form: a 48-byte sampleRecord with no pointers, not the
// 120-byte GaugeSample, which keeps a recorded session's live heap
// within TestSoakRecordedSessionGrowthPerUnit's per-unit bound. A
// sample that carries result-cache or store gauges, a Cell or T of its
// own, or a count beyond 32 bits is kept whole in a side table instead.
type Series struct {
	samples blockLog[sampleRecord]
	whole   []GaugeSample
}

// sampleRecord is a stored gauge sample: the seven unit and core counts
// in order of GaugeSample's fields, or, when whole is set, the index
// plus one of the sample kept whole.
type sampleRecord struct {
	at    time.Duration
	util  float64
	ints  [7]int32
	whole int32
}

// Add appends a sample.
func (s *Series) Add(g GaugeSample) {
	rec := sampleRecord{at: g.At, util: g.Utilization}
	ok := g.Cell == "" && g.T == 0 && g.CacheEntries == 0 && g.CacheBytes == 0 && g.StoreFree == nil
	for i, v := range [7]int{g.QueueDepth, g.WaitingCores, g.HeldUnits, g.HeldCores,
		g.RunningUnits, g.RunningCores, g.TotalCores} {
		rec.ints[i] = int32(v)
		ok = ok && int(rec.ints[i]) == v
	}
	if !ok {
		s.whole = append(s.whole, g)
		rec = sampleRecord{at: g.At, whole: int32(len(s.whole))}
	}
	s.samples.add(rec)
}

// sample decodes a stored sample.
func (s *Series) sample(rec *sampleRecord) GaugeSample {
	if rec.whole != 0 {
		return s.whole[rec.whole-1]
	}
	return GaugeSample{
		At: rec.at, Utilization: rec.util,
		QueueDepth: int(rec.ints[0]), WaitingCores: int(rec.ints[1]),
		HeldUnits: int(rec.ints[2]), HeldCores: int(rec.ints[3]),
		RunningUnits: int(rec.ints[4]), RunningCores: int(rec.ints[5]),
		TotalCores: int(rec.ints[6]),
	}
}

// Len reports the number of samples.
func (s *Series) Len() int { return s.samples.n }

// Samples returns the samples in record order, as one exact-size copy.
func (s *Series) Samples() []GaugeSample {
	if s.samples.n == 0 {
		return nil
	}
	out := make([]GaugeSample, 0, s.samples.n)
	for _, b := range s.samples.blocks {
		for i := range b {
			out = append(out, s.sample(&b[i]))
		}
	}
	return out
}

// Last returns the most recent sample (zero when empty).
func (s *Series) Last() GaugeSample {
	if s.samples.n == 0 {
		return GaugeSample{}
	}
	rec := s.samples.last()
	return s.sample(&rec)
}

// WriteJSONL renders the series as one JSON object per line, each
// carrying the cell label (omitted when empty) and the sample time as
// seconds in "t" — the shape plotting scripts consume directly. Each
// line is appended straight to a buffered writer, byte for byte as
// encoding/json would encode the GaugeSample.
func (s *Series) WriteJSONL(w io.Writer, cell string) error {
	bw := bufio.NewWriter(w)
	var b []byte
	var keys []string
	for _, blk := range s.samples.blocks {
		for i := range blk {
			g := s.sample(&blk[i])
			if math.IsNaN(g.Utilization) || math.IsInf(g.Utilization, 0) {
				return fmt.Errorf("obs: series encode: unsupported utilization %v", g.Utilization)
			}
			b = append(b[:0], '{')
			if cell != "" {
				b = append(b, `"cell":`...)
				b = appendString(b, cell)
				b = append(b, ',')
			}
			b = append(b, `"t":`...)
			b = appendFloat(b, g.At.Seconds())
			b = appendIntField(b, `,"queue_depth":`, int64(g.QueueDepth))
			b = appendIntField(b, `,"waiting_cores":`, int64(g.WaitingCores))
			b = appendIntField(b, `,"held_units":`, int64(g.HeldUnits))
			b = appendIntField(b, `,"held_cores":`, int64(g.HeldCores))
			b = appendIntField(b, `,"running_units":`, int64(g.RunningUnits))
			b = appendIntField(b, `,"running_cores":`, int64(g.RunningCores))
			b = appendIntField(b, `,"total_cores":`, int64(g.TotalCores))
			b = append(b, `,"utilization":`...)
			b = appendFloat(b, g.Utilization)
			if g.CacheEntries != 0 {
				b = appendIntField(b, `,"cache_entries":`, int64(g.CacheEntries))
			}
			if g.CacheBytes != 0 {
				b = appendIntField(b, `,"cache_bytes":`, g.CacheBytes)
			}
			if len(g.StoreFree) > 0 {
				keys = keys[:0]
				for k := range g.StoreFree {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				b = append(b, `,"store_free":`...)
				for j, k := range keys {
					if j == 0 {
						b = append(b, '{')
					} else {
						b = append(b, ',')
					}
					b = appendString(b, k)
					b = strconv.AppendInt(append(b, ':'), g.StoreFree[k], 10)
				}
				b = append(b, '}')
			}
			bw.Write(append(b, '}', '\n'))
		}
	}
	// The bufio.Writer keeps the first write error; Flush returns it.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: series encode: %w", err)
	}
	return nil
}

// appendIntField appends a key (with its leading comma and colon) and
// an integer value.
func appendIntField(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}
