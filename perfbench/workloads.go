package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/pilot"
)

// A workload is one set of inputs the benchmark runs. gen derives the
// inputs from the seed, outside the program; run builds a fresh engine,
// brings the pilots up and executes one cell on those inputs. The
// program sees only the descriptions the cell builds from the inputs.
type workload struct {
	name string
	// units is the number of Compute-Units one cell submits.
	units int
	gen   func(seed int64) inputs
	run   func(in inputs, m mode) (*cell, error)
}

// mode selects how much of a cell runs.
type mode int

const (
	// modeSetup builds the environment and the descriptions, brings the
	// pilots up, and tears down without submitting: a set-up sample.
	modeSetup mode = iota
	// modePlain runs the whole cell untraced.
	modePlain
	// modeTraced adds a CPU profile of the timed phase and per-call timers.
	modeTraced
)

// inputs is what gen draws from the seed. Every workload uses a subset:
// per-unit virtual runtimes for the many-task shapes, map work and
// partition placement for the dataflow.
type inputs struct {
	durations  []time.Duration // manytask: one per unit
	mapWork    []float64       // dataflow: compute-seconds per map
	reduceWork []float64       // dataflow: compute-seconds per reduce
	placement  []int           // dataflow: data pilot holding each partition
}

// cell is one run of a workload: host timings, virtual-time results,
// exact counters and the per-layer spans.
type cell struct {
	submitted, done int

	setup time.Duration // inputs, engine, session, bring-up, pre-staging
	wall  time.Duration // timed phase: first submit to last result read
	cpu   time.Duration // user+sys over the timed phase

	makespan, turnP50, turnP99 time.Duration // virtual

	// Go runtime deltas over the timed phase.
	mallocs, allocBytes, gcCycles uint64

	// Bind loop, cache and recorder counters.
	bindPasses, offered             int64
	hits, coalesced, executions     int
	duplicates, distinct            int
	events, traceEvents, exportSize int

	// Spans timed by the benchmark around calls into each layer.
	submitS, bringupS, prestageS, admitS        time.Duration
	bridgeS, verifyS, chromeS, seriesS, scrapeS time.Duration
	// profile is the CPU profile of the timed phase (traced cells only).
	profile []byte
	// probe is the host-speed probe time taken before the cell.
	probe time.Duration
}

var workloads = []*workload{
	{name: "manytask", units: manytaskUnits, gen: genManytask(manytaskUnits),
		run: func(in inputs, m mode) (*cell, error) { return runManytask(in, false, m) }},
	{name: "manytask-observed", units: observedUnits, gen: genManytask(observedUnits),
		run: func(in inputs, m mode) (*cell, error) { return runManytask(in, true, m) }},
	{name: "hadoop-dataflow", units: dataflowUnits(), gen: genDataflow, run: runDataflow},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// The many-task shape: 1-core sleep units on 16 two-node HPC pilots
// under late binding (backfill).
const (
	manytaskUnits  = 100000
	observedUnits  = 30000
	manytaskPilots = 16
)

// genManytask draws each unit's virtual runtime uniformly from
// [4 s, 7 s) at microsecond resolution.
func genManytask(n int) func(seed int64) inputs {
	return func(seed int64) inputs {
		rng := rand.New(rand.NewSource(seed))
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = 4*time.Second + time.Duration(rng.Int63n(3e6))*time.Microsecond
		}
		return inputs{durations: d}
	}
}

// machineSpec is the simulated machine: nodes of 8 cores with local
// disks, a shared Lustre and a fast fabric.
func machineSpec(name string, nodes int) cluster.MachineSpec {
	return cluster.MachineSpec{
		Name:  name,
		Nodes: nodes,
		Node: cluster.NodeSpec{
			Cores: 8, MemoryMB: 32 * 1024, DiskBW: 400e6,
			DiskOpLatency: time.Millisecond, NICBW: 1e9,
		},
		FabricBW: 10e9,
		Lustre: storage.LustreSpec{
			AggregateBW: 1e9, MDSServers: 2,
			MDSServiceTime: 2 * time.Millisecond, ClientLatency: 3 * time.Millisecond,
		},
		CPUFactor:  1,
		ExternalBW: 500e6,
	}
}

// bootstrapProfile trims the generic agent bootstrap so bring-up stays
// short in virtual time, keeping the Mode I Hadoop spawn calibrated.
func bootstrapProfile() pilot.BootstrapProfile {
	prof := pilot.DefaultProfile()
	prof.AgentSetup = 2 * time.Second
	prof.AgentVenvOps = 50
	prof.AgentComponents = time.Second
	prof.UnitWrapperOps = 20
	prof.UnitWrapperSetup = 2 * time.Second
	prof.Jitter = 0
	return prof
}

// env is one fresh simulated environment: engine, machine, batch
// system and session.
type env struct {
	eng     *sim.Engine
	session *pilot.Session
	rec     *pilot.Recorder
}

// programSeed seeds the program's own random streams (batch queue waits,
// agent jitter). It is fixed: the benchmark seed shapes the inputs only.
const programSeed = 1

func newEnv(name string, nodes int, rec func(*sim.Engine) *pilot.Recorder) (*env, error) {
	eng := sim.NewEngine()
	m := cluster.New(eng, machineSpec(name, nodes))
	batch := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 8 * time.Hour,
		Seed:            programSeed,
	})
	e := &env{eng: eng}
	opts := []pilot.Option{pilot.WithProfile(bootstrapProfile()), pilot.WithSeed(programSeed)}
	if rec != nil {
		e.rec = rec(eng)
		opts = append(opts, pilot.WithRecorder(e.rec))
	}
	e.session = pilot.NewSession(eng, opts...)
	res := &pilot.Resource{Name: name, URL: "slurm://" + name, Machine: m, Batch: batch}
	if err := e.session.AddResource(res); err != nil {
		eng.Close()
		return nil, err
	}
	return e, nil
}

// bringUp submits n pilots and waits until every one is Active.
func bringUp(p *sim.Proc, s *pilot.Session, desc pilot.PilotDescription, n int) ([]*pilot.Pilot, error) {
	pm := pilot.NewPilotManager(s)
	pls := make([]*pilot.Pilot, 0, n)
	for i := 0; i < n; i++ {
		pl, err := pm.Submit(p, desc)
		if err != nil {
			return nil, err
		}
		pls = append(pls, pl)
	}
	for _, pl := range pls {
		if !pl.WaitState(p, pilot.PilotActive) {
			return nil, fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
		}
	}
	return pls, nil
}

func cancelAll(pls []*pilot.Pilot) {
	for _, pl := range pls {
		pl.Cancel()
	}
}

// timed marks the timed phase's host-side boundaries.
type timed struct {
	wall  time.Time
	cpu   time.Duration
	stats memStats
}

func startTimed() timed {
	return timed{wall: time.Now(), cpu: processCPU(), stats: readMemStats()}
}

func (t timed) stop(c *cell) {
	c.wall = time.Since(t.wall)
	c.cpu = processCPU() - t.cpu
	s := readMemStats()
	c.mallocs = s.mallocs - t.stats.mallocs
	c.allocBytes = s.allocBytes - t.stats.allocBytes
	c.gcCycles = s.gcCycles - t.stats.gcCycles
}

// turnaround fills the virtual-time results from the units' DONE
// stamps relative to the first submission.
func turnaround(c *cell, units []*pilot.Unit, start, end time.Duration) {
	c.makespan = end - start
	ts := make([]time.Duration, 0, len(units))
	for _, u := range units {
		if u.State() == pilot.UnitDone {
			c.done++
			ts = append(ts, u.Timestamps[pilot.UnitDone]-start)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	c.turnP50, c.turnP99 = rank(ts, 0.50), rank(ts, 0.99)
}

// rank is the nearest-rank percentile of sorted values.
func rank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runManytask runs the many-task cell. observed turns the whole
// observability plane on: recorder, metrics bridge and gauge series
// while the units run, then in-process reads of the stream at the end.
func runManytask(in inputs, observed bool, m mode) (*cell, error) {
	c := &cell{submitted: len(in.durations)}
	setupStart := time.Now()
	var recFn func(*sim.Engine) *pilot.Recorder
	var reg *pilot.MetricsRegistry
	if observed {
		reg = pilot.NewMetricsRegistry()
		recFn = func(eng *sim.Engine) *pilot.Recorder {
			rec := pilot.NewRecorder(eng)
			bridge := pilot.NewMetricsBridge(reg)
			if m == modeTraced {
				rec.OnRecord(func(ev pilot.TraceEvent) {
					t0 := time.Now()
					bridge.Apply(ev)
					c.bridgeS += time.Since(t0)
				})
			} else {
				rec.OnRecord(bridge.Apply)
			}
			return rec
		}
	}
	e, err := newEnv("manytask", 2*manytaskPilots, recFn)
	if err != nil {
		return nil, err
	}
	defer e.eng.Close()

	var runErr error
	e.eng.Spawn("client", func(p *sim.Proc) {
		um, err := pilot.NewUnitManager(e.session, pilot.WithScheduler(pilot.SchedulerBackfill))
		if err != nil {
			runErr = err
			return
		}
		t0 := time.Now()
		pls, err := bringUp(p, e.session, pilot.PilotDescription{
			Resource: "manytask", Nodes: 2, Runtime: 8 * time.Hour, Mode: pilot.ModeHPC,
		}, manytaskPilots)
		if err != nil {
			runErr = err
			return
		}
		c.bringupS = time.Since(t0)
		for _, pl := range pls {
			if err := um.AddPilot(pl); err != nil {
				runErr = err
				return
			}
		}
		descs := make([]pilot.ComputeUnitDescription, len(in.durations))
		for i, d := range in.durations {
			d := d
			descs[i] = pilot.ComputeUnitDescription{
				Cores: 1,
				Body:  func(bp *sim.Proc, _ *pilot.UnitContext) { bp.Sleep(d) },
			}
		}
		c.setup = time.Since(setupStart)
		if m == modeSetup {
			cancelAll(pls)
			return
		}

		prof := startProfile(m == modeTraced)
		tm := startTimed()
		start := p.Now()
		t0 = time.Now()
		units, err := um.Submit(p, descs)
		c.submitS = time.Since(t0)
		if err != nil {
			runErr = err
			return
		}
		um.WaitAll(p, units)
		// The profile covers the units running; the reads below are
		// measured by their own spans.
		c.profile = prof.stop()
		turnaround(c, units, start, p.Now())
		c.bindPasses, c.offered = um.BindPassStats()
		if observed {
			if runErr = readStream(c, e.rec, reg); runErr != nil {
				return
			}
		}
		tm.stop(c)
		cancelAll(pls)
	})
	e.eng.Run()
	return c, runErr
}

// readStream is the observed workload's read side: the bind audit, the
// Chrome-trace and gauge-series exports and a Prometheus scrape, all
// into a byte-counting discard sink.
func readStream(c *cell, rec *pilot.Recorder, reg *pilot.MetricsRegistry) error {
	c.events, c.traceEvents = rec.Len(), rec.Count(pilot.EventTrace)
	var sink countingWriter
	t0 := time.Now()
	events := rec.Events()
	if err := pilot.VerifyBinds(events); err != nil {
		return fmt.Errorf("VerifyBinds: %w", err)
	}
	if n := pilot.DoneUnits(events); n != c.submitted {
		return fmt.Errorf("recorder saw %d DONE units, want %d", n, c.submitted)
	}
	c.verifyS = time.Since(t0)
	t0 = time.Now()
	if err := pilot.WriteChromeTrace(&sink, events); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	c.chromeS = time.Since(t0)
	t0 = time.Now()
	if err := rec.Series().WriteJSONL(&sink, "manytask-observed"); err != nil {
		return fmt.Errorf("series: %w", err)
	}
	c.seriesS = time.Since(t0)
	t0 = time.Now()
	if err := reg.WritePrometheus(&sink); err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	c.scrapeS = time.Since(t0)
	if done := reg.Total("pilot_units_done"); int(done) != c.submitted {
		return fmt.Errorf("registry counted %v done units, want %d", done, c.submitted)
	}
	c.exportSize = sink.n
	return nil
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}
