package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler wraps one CPU profile over a timed phase; a nil profiler
// (untraced cells) records nothing.
type profiler struct{ buf bytes.Buffer }

func startProfile(traced bool) *profiler {
	if !traced {
		return nil
	}
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil // already profiling: a bug; tracedRun then finds no samples
	}
	return p
}

func (p *profiler) stop() []byte {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// The layers a CPU sample is charged to. Every sample lands in exactly
// one, so the shares sum to 100%.
var layerOrder = []string{
	"sim", "core.bind", "core.view", "core.agent", "core.other",
	"yarn", "data", "graph", "cache", "obs", "bench", "runtime.gc", "runtime.other",
}

// layerOf maps a repro frame (package path after "repro/", source file
// base name, function name) to its layer.
func layerOf(pkg, file, fn string) string {
	switch pkg {
	case "internal/sim":
		return "sim"
	case "internal/core":
		switch {
		case strings.HasSuffix(fn, ".buildView") || file == "clusterview.go":
			return "core.view"
		case file == "unit.go" || file == "parkindex.go" || file == "umsched.go":
			return "core.bind"
		case file == "cache.go":
			return "cache"
		case file == "agent.go" || strings.HasPrefix(file, "backend") || file == "sched.go" ||
			file == "reuseam.go" || file == "elastic.go":
			return "core.agent"
		}
		return "core.other"
	case "internal/hpc", "internal/cluster", "internal/spark", "internal/saga", "internal/coord":
		return "core.agent"
	case "internal/yarn":
		return "yarn"
	case "internal/data", "internal/storage", "internal/hdfs":
		return "data"
	case "internal/graph":
		return "graph"
	case "internal/cache":
		return "cache"
	case "internal/obs", "internal/metrics", "internal/profiling":
		return "obs"
	}
	return "core.other"
}

// gcWorkers are the runtime's background collection goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// handoffFrames are the runtime's goroutine-switch paths: channel
// operations, parking and the scheduler.
var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.schedule", "runtime.park_m", "runtime.mcall",
	"runtime.selectgo", "runtime.send", "runtime.recv", "runtime.wakep",
	"runtime.findRunnable", "runtime.stopm", "runtime.startm", "runtime.futex",
	"runtime.notesleep", "runtime.notewakeup", "runtime.runqget", "runtime.runqput",
	"runtime.execute", "runtime.gogo", "runtime.casgstatus",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// shares is the per-layer sample count of one or more CPU profiles.
type shares struct {
	total   int64
	layer   map[string]int64
	handoff int64 // sim samples spent in goroutine-switch paths
}

// frame is one (possibly inlined) function in a sample's stack.
type frame struct{ name, file string }

// add charges every sample of a gzipped pprof CPU profile to one layer:
//   - a GC worker on the stack: runtime.gc;
//   - goroutine stack growth (runtime.newstack): sim;
//   - otherwise the layer of the innermost repro frame, so runtime
//     frames go to the nearest repro caller and the benchmark's own
//     frames to bench;
//   - with no repro frame, scheduler frames go to sim as handoff (the
//     kernel's goroutine switches are the only handoffs in this
//     process), anything else to runtime.other.
func (s *shares) add(profile []byte) error {
	if len(profile) == 0 {
		return nil
	}
	p, err := parseProfile(profile)
	if err != nil {
		return err
	}
	if s.layer == nil {
		s.layer = map[string]int64{}
	}
	for _, smp := range p.samples {
		var stack []frame
		for _, id := range smp.locs {
			stack = append(stack, p.locs[id]...)
		}
		layer, handoff := classify(stack)
		s.layer[layer] += smp.count
		s.total += smp.count
		if handoff {
			s.handoff += smp.count
		}
	}
	return nil
}

// classify returns a stack's layer (stack[0] is the leaf) and whether
// the sample is a sim-kernel goroutine handoff.
func classify(stack []frame) (string, bool) {
	switched := false
	for _, f := range stack {
		if strings.HasPrefix(f.name, "repro/") {
			rest := strings.TrimPrefix(f.name, "repro/")
			pkg := rest
			if slash := strings.LastIndex(rest, "/"); slash >= 0 {
				if dot := strings.Index(rest[slash:], "."); dot >= 0 {
					pkg = rest[:slash+dot]
				}
			} else if dot := strings.Index(rest, "."); dot >= 0 {
				pkg = rest[:dot]
			}
			file := f.file
			if slash := strings.LastIndex(file, "/"); slash >= 0 {
				file = file[slash+1:]
			}
			layer := layerOf(pkg, file, f.name)
			return layer, layer == "sim" && switched
		}
		if strings.HasPrefix(f.name, "main.") {
			return "bench", false
		}
		if hasPrefixAny(f.name, gcWorkers) {
			return "runtime.gc", false
		}
		if f.name == "runtime.newstack" {
			// Stack growth: which frame crosses the limit is arbitrary;
			// the cost is the kernel's goroutine-per-process design.
			return "sim", false
		}
		if hasPrefixAny(f.name, handoffFrames) {
			switched = true
		}
	}
	if switched {
		return "sim", true
	}
	return "runtime.other", false
}

// pct is a layer's share of all samples, in percent.
func (s *shares) pct(layer string) float64 {
	if s.total == 0 {
		return 0
	}
	return 100 * float64(s.layer[layer]) / float64(s.total)
}

// A minimal decoder for the gzipped protocol-buffer profile
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto):
// only samples, locations, functions and the string table are read.

type sample struct {
	locs  []uint64
	count int64
}

type profileData struct {
	samples []sample
	locs    map[uint64][]frame
}

func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn uint64 }
	type fnRec struct{ name, file int64 }
	var (
		strs    []string
		samples []sample
		locLns  = map[uint64][]line{}
		fns     = map[uint64]fnRec{}
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []line
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					if err := fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			})
			locLns[id] = lines
			return err
		case 5: // Function
			var id uint64
			var f fnRec
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			fns[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profileData{samples: samples, locs: make(map[uint64][]frame, len(locLns))}
	for id, lines := range locLns {
		frames := make([]frame, len(lines))
		for i, l := range lines { // innermost (inlined) function first
			f := fns[l.fn]
			frames[i] = frame{name: str(f.name), file: str(f.file)}
		}
		p.locs[id] = frames
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var body []byte
		switch typ {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one varint,
// or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
