// Command perfbench is the repository benchmark: it drives the pilot
// API in one process over three workloads that each load a different
// layer, checks every run's outputs, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload manytask --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (medians over the
// cells run in --seconds); with --trace 1 it adds a CPU profile and
// per-call timers and reports the per-layer ledger instead. See
// README.md in this directory for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the seed the committed expected values are for.
const defaultSeed = 42

// minCells is the fewest cells an untraced run measures, so every
// reported value is a median.
const minCells = 3

// setupSamples is how many set-up-only cells follow each full cell:
// set-up is a few milliseconds, so setup_s is the median of many.
const setupSamples = 4

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: manytask, manytask-observed or hadoop-dataflow")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	// One processor on every host: the simulation runs one process at a
	// time, so a second one mostly hosts GC workers and cross-CPU
	// wake-ups, whose timing varies with the host's load. With one, wall
	// time tracks CPU time and the runtime counters repeat.
	runtime.GOMAXPROCS(1)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d units/cell=%d\n",
		wl.name, *seed, *seconds, *trace, wl.units)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = tracedRun(stdout, wl, *seed, budget)
	} else {
		res, err = untracedRun(stdout, wl, *seed, budget)
	}
	if err != nil {
		return err
	}
	if !res.Correct {
		res.Metrics = map[string]metric{} // a failed check reports no numbers
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("output check failed")
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCell runs one cell: the host-speed probe, each side of it a
// collection so neither the probe nor the cell pays for earlier garbage,
// then input generation and the workload. Input generation counts as
// set-up.
func runCell(wl *workload, seed int64, m mode) (*cell, error) {
	runtime.GC()
	p, err := probe()
	if err != nil {
		return nil, fmt.Errorf("host-speed probe: %w", err)
	}
	runtime.GC()
	t0 := time.Now()
	in := wl.gen(seed)
	gen := time.Since(t0)
	c, err := wl.run(in, m)
	if err != nil {
		return nil, fmt.Errorf("%s cell: %w", wl.name, err)
	}
	c.setup += gen
	c.probe = p
	return c, nil
}

// checker applies the output checks to every cell of a run and flags
// exact counters that differ between cells.
type checker struct {
	wl       *workload
	seed     int64
	first    *cell
	failures []string
	flags    []string
	attempt  int
	failed   int
}

func (k *checker) check(c *cell, m mode) {
	k.attempt += c.submitted
	if c.done != c.submitted {
		k.failed += c.submitted - c.done
		k.fail("%d of %d units did not reach DONE", c.submitted-c.done, c.submitted)
	}
	if want, ok := expected[k.wl.name][strconv.FormatInt(k.seed, 10)]; ok {
		if got := simOf(c); got != want {
			k.fail("virtual-time results %+v differ from the committed %+v", got, want)
		}
	}
	if c.duplicates > 0 {
		if c.executions != c.distinct {
			k.fail("cache.executions %d, want one per distinct computation (%d)", c.executions, c.distinct)
		}
		if c.hits+c.coalesced != c.duplicates || c.hits == 0 || c.coalesced == 0 {
			k.fail("cache hits %d + coalesced %d, want both positive and summing to %d duplicates",
				c.hits, c.coalesced, c.duplicates)
		}
	}
	if k.first == nil {
		k.first = c
		return
	}
	if simOf(c) != simOf(k.first) {
		k.fail("virtual-time results changed between cells: %+v then %+v", simOf(k.first), simOf(c))
	}
	for _, x := range exactCounters {
		if a, b := x.get(k.first), x.get(c); a != b {
			k.flags = append(k.flags, fmt.Sprintf("exact counter %s differs between cells: %v then %v", x.name, a, b))
		}
	}
	if m != modePlain {
		return // the profiler allocates too
	}
	for _, x := range allocCounters {
		a, b := x.get(k.first), x.get(c)
		if diff := math.Abs(float64(a)-float64(b)) / float64(a); diff > allocTolerance {
			k.flags = append(k.flags, fmt.Sprintf("counter %s differs by %.3f%% between cells: %v then %v",
				x.name, 100*diff, a, b))
		}
	}
}

func (k *checker) fail(format string, args ...any) {
	k.failures = append(k.failures, fmt.Sprintf(format, args...))
}

func (k *checker) report(w io.Writer) bool {
	for _, f := range k.flags {
		fmt.Fprintln(w, "# FLAG", f)
	}
	for _, f := range k.failures {
		fmt.Fprintln(w, "# CHECK FAILED", f)
	}
	if k.first != nil {
		s := simOf(k.first)
		fmt.Fprintf(w, "# sim makespan_ns=%d turnaround_p50_ns=%d turnaround_p99_ns=%d\n",
			s.MakespanNS, s.P50NS, s.P99NS)
	}
	return len(k.failures) == 0
}

// simResult is a cell's virtual-time results, deterministic per seed.
type simResult struct {
	MakespanNS int64 `json:"makespan_ns"`
	P50NS      int64 `json:"turnaround_p50_ns"`
	P99NS      int64 `json:"turnaround_p99_ns"`
}

func simOf(c *cell) simResult {
	return simResult{int64(c.makespan), int64(c.turnP50), int64(c.turnP99)}
}

//go:embed expected.json
var expectedJSON []byte

// expected holds the committed virtual-time results per workload and
// seed; a run on one of these seeds must reproduce them exactly.
var expected = func() map[string]map[string]simResult {
	var m map[string]map[string]simResult
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return m
}()

type counter struct {
	name string
	get  func(*cell) uint64
}

// exactCounters repeat exactly between cells of one seed, because the
// simulation is deterministic.
var exactCounters = []counter{
	{"core.bind_passes", func(c *cell) uint64 { return uint64(c.bindPasses) }},
	{"core.offered", func(c *cell) uint64 { return uint64(c.offered) }},
	{"cache.hits", func(c *cell) uint64 { return uint64(c.hits) }},
	{"cache.coalesced", func(c *cell) uint64 { return uint64(c.coalesced) }},
	{"cache.executions", func(c *cell) uint64 { return uint64(c.executions) }},
	{"obs.events", func(c *cell) uint64 { return uint64(c.events) }},
	{"obs.trace_events", func(c *cell) uint64 { return uint64(c.traceEvents) }},
	{"obs.export_bytes", func(c *cell) uint64 { return uint64(c.exportSize) }},
}

// allocCounters repeat to within allocTolerance between untraced cells:
// the first cell of a process also pays one-time lazy initialization
// (0.03% of the allocations, 0.15% of the bytes), and later cells
// differ by a handful of runtime-internal allocations. GC cycles are
// not compared at all: the pacer's trigger points depend on how marking
// overlapped the program.
var allocCounters = []counter{
	{"runtime.allocs", func(c *cell) uint64 { return c.mallocs }},
	{"runtime.alloc_bytes", func(c *cell) uint64 { return c.allocBytes }},
}

const allocTolerance = 0.005

// untracedRun measures cells until the budget is spent (at least
// minCells) and reports the end-to-end metrics: medians over the cells,
// with every time scaled by the host speed measured around it (see
// probe.go).
func untracedRun(w io.Writer, wl *workload, seed int64, budget time.Duration) (result, error) {
	k := &checker{wl: wl, seed: seed}
	var cells []*cell
	var wall, cpu, rate, setup, raw []float64
	start := time.Now()
	for {
		c, err := runCell(wl, seed, modePlain)
		if err != nil {
			return result{}, err
		}
		k.check(c, modePlain)
		cells = append(cells, c)
		group := []*cell{c}
		for i := 0; i < setupSamples; i++ {
			s, err := runCell(wl, seed, modeSetup)
			if err != nil {
				return result{}, err
			}
			group = append(group, s)
		}
		// The host speed around the cell: the median of the probe before
		// it and those before the set-up samples right after it.
		probes := make([]float64, len(group))
		for i, g := range group {
			probes[i] = g.probe.Seconds()
		}
		scale := probeRef / median(probes)
		wall = append(wall, c.wall.Seconds()*scale)
		cpu = append(cpu, c.cpu.Seconds()*scale)
		rate = append(rate, float64(c.submitted)/c.wall.Seconds()/scale)
		raw = append(raw, c.wall.Seconds())
		for _, g := range group {
			setup = append(setup, g.setup.Seconds()*scale)
		}
		fmt.Fprintf(w, "# cell %d: wall %.3f s, cpu %.3f s, host scale %.3f\n",
			len(cells), c.wall.Seconds(), c.cpu.Seconds(), scale)
		per := time.Since(start) / time.Duration(len(cells))
		if len(cells) >= minCells && time.Since(start)+per > budget {
			break
		}
	}
	fmt.Fprintf(w, "# %-22s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	summary(w, "wall_s (unscaled)", "s", raw)
	last := cells[len(cells)-1]
	res := result{Metrics: map[string]metric{
		"units_per_s":          {summary(w, "units_per_s", "1/s", rate), "1/s"},
		"wall_s":               {summary(w, "wall_s", "s", wall), "s"},
		"cpu_s":                {summary(w, "cpu_s", "s", cpu), "s"},
		"setup_s":              {summary(w, "setup_s", "s", setup), "s"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
		"sim_makespan_s":       {last.makespan.Seconds(), "s"},
		"sim_turnaround_p50_s": {last.turnP50.Seconds(), "s"},
		"sim_turnaround_p99_s": {last.turnP99.Seconds(), "s"},
	}}
	fmt.Fprintf(w, "# %-22s %14.6g  MB (process peak)\n", "peak_rss_mb", res.Metrics["peak_rss_mb"].Value)
	res.Correct = k.report(w)
	res.Attempted, res.Failed = k.attempt, k.failed
	return res, nil
}

// summary prints a metric's median and quartile spread over vals and
// returns the median.
func summary(w io.Writer, name, unit string, vals []float64) float64 {
	med, q1, q3 := median(vals), quartile(vals, 1), quartile(vals, 3)
	fmt.Fprintf(w, "# %-22s %14.6g %14.6g %14.6g %7.2f%%  %s (n=%d)\n",
		name, med, q1, q3, 100*(q3-q1)/med, unit, len(vals))
	return med
}

// tracedRun is the separate traced run: two untraced cells for the
// exact counters and the untraced wall time, then traced cells (CPU
// profile plus per-call timers) until the budget is spent.
func tracedRun(w io.Writer, wl *workload, seed int64, budget time.Duration) (result, error) {
	k := &checker{wl: wl, seed: seed}
	start := time.Now()
	var plain, traced []*cell
	for len(plain) < 2 {
		c, err := runCell(wl, seed, modePlain)
		if err != nil {
			return result{}, err
		}
		k.check(c, modePlain)
		plain = append(plain, c)
	}
	var sh shares
	for {
		c, err := runCell(wl, seed, modeTraced)
		if err != nil {
			return result{}, err
		}
		k.check(c, modeTraced)
		if err := sh.add(c.profile); err != nil {
			return result{}, err
		}
		c.profile = nil
		traced = append(traced, c)
		per := time.Since(start) / time.Duration(len(plain)+len(traced))
		if time.Since(start)+per > budget {
			break
		}
	}

	if sh.total == 0 {
		return result{}, errors.New("the CPU profiles hold no samples")
	}
	res := result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	spanMed := func(get func(*cell) time.Duration) float64 {
		vals := make([]float64, len(traced))
		for i, c := range traced {
			vals[i] = get(c).Seconds()
		}
		return median(vals)
	}
	// wallMed is the median wall time, each cell scaled by the host
	// speed its probe measured, so drift between the untraced and the
	// traced cells does not read as tracing overhead.
	wallMed := func(cs []*cell) float64 {
		vals := make([]float64, len(cs))
		for i, c := range cs {
			vals[i] = c.wall.Seconds() * probeRef / c.probe.Seconds()
		}
		return median(vals)
	}
	c := plain[1] // the first cell of a process also pays lazy initialization
	units := float64(c.submitted)

	// Per-layer CPU shares of the timed phase.
	fmt.Fprintf(w, "# traced cells=%d untraced cells=%d profile samples=%d\n", len(traced), len(plain), sh.total)
	fmt.Fprintf(w, "# %-16s %8s %8s\n", "layer", "share", "samples")
	sum := 0.0
	for _, l := range layerOrder {
		sum += sh.pct(l)
		fmt.Fprintf(w, "# %-16s %7.2f%% %8d\n", l, sh.pct(l), sh.layer[l])
	}
	handoff := 0.0
	if sh.total > 0 {
		handoff = 100 * float64(sh.handoff) / float64(sh.total)
	}
	fmt.Fprintf(w, "# %-16s %7.2f%%  (sum)\n# %-16s %7.2f%%  (of which sim handoff)\n", "total", sum, "  sim.handoff", handoff)
	for _, l := range []struct{ metric, layer string }{
		{"sim.cpu_share", "sim"}, {"core.bind_share", "core.bind"}, {"core.view_share", "core.view"},
		{"core.agent_share", "core.agent"}, {"core.other_share", "core.other"}, {"yarn.cpu_share", "yarn"},
		{"data.cpu_share", "data"}, {"graph.cpu_share", "graph"}, {"cache.cpu_share", "cache"},
		{"obs.record_share", "obs"}, {"bench.cpu_share", "bench"},
		{"runtime.gc_share", "runtime.gc"}, {"runtime.other_share", "runtime.other"},
	} {
		put(l.metric, "%", sh.pct(l.layer))
	}
	put("sim.handoff_share", "%", handoff)

	// Spans from the benchmark's own timers, medians over traced cells.
	for _, s := range []struct {
		name string
		get  func(*cell) time.Duration
	}{
		{"core.submit_s", func(c *cell) time.Duration { return c.submitS }},
		{"core.bringup_s", func(c *cell) time.Duration { return c.bringupS }},
		{"data.prestage_s", func(c *cell) time.Duration { return c.prestageS }},
		{"graph.admit_s", func(c *cell) time.Duration { return c.admitS }},
		{"obs.bridge_s", func(c *cell) time.Duration { return c.bridgeS }},
		{"obs.verify_s", func(c *cell) time.Duration { return c.verifyS }},
		{"obs.chrome_export_s", func(c *cell) time.Duration { return c.chromeS }},
		{"obs.series_export_s", func(c *cell) time.Duration { return c.seriesS }},
		{"obs.scrape_s", func(c *cell) time.Duration { return c.scrapeS }},
	} {
		put(s.name, "s", spanMed(s.get))
		fmt.Fprintf(w, "# span %-20s %12.6f s\n", s.name, res.Metrics[s.name].Value)
	}

	// Exact counters, from the first untraced cell.
	useful := 0.0
	if c.duplicates > 0 {
		useful = float64(c.hits+c.coalesced) / float64(c.duplicates)
	}
	traceShare := 0.0
	if c.events > 0 {
		traceShare = float64(c.traceEvents) / float64(c.events)
	}
	for _, x := range []struct {
		name, unit string
		v          float64
	}{
		{"core.bind_passes", "count", float64(c.bindPasses)},
		{"core.offers_per_unit", "offers/unit", float64(c.offered) / units},
		{"cache.hits", "count", float64(c.hits)},
		{"cache.coalesced", "count", float64(c.coalesced)},
		{"cache.executions", "count", float64(c.executions)},
		{"cache.useful_ratio", "ratio", useful},
		{"obs.events_per_unit", "events/unit", float64(c.events) / units},
		{"obs.trace_event_share", "ratio", traceShare},
		{"obs.export_bytes", "B", float64(c.exportSize)},
		{"runtime.allocs_per_unit", "allocs/unit", float64(c.mallocs) / units},
		{"runtime.alloc_bytes_per_unit", "B/unit", float64(c.allocBytes) / units},
		{"runtime.gc_cycles", "count", float64(c.gcCycles)},
	} {
		put(x.name, x.unit, x.v)
		fmt.Fprintf(w, "# exact %-28s %16.6f %s\n", x.name, x.v, x.unit)
	}
	put("exact_mismatches", "count", float64(len(k.flags)))
	put("trace_overhead_ratio", "ratio", wallMed(traced)/wallMed(plain))
	fmt.Fprintf(w, "# trace_overhead_ratio %.4f (scaled traced wall %.3f s / untraced %.3f s)\n",
		res.Metrics["trace_overhead_ratio"].Value, wallMed(traced), wallMed(plain))
	res.Correct = k.report(w)
	res.Attempted, res.Failed = k.attempt, k.failed
	return res, nil
}

// median and quartile follow Python's statistics.median and
// statistics.quantiles(n=4) (exclusive method).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartile(vals []float64, i int) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s)
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
