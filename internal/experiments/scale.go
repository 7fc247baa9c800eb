package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/pilot"
)

// The scale sweep: the same many-task workload run at growing unit
// counts (10², 10³, 10⁴, 10⁵ by default) across many pilots, measuring
// what the telemetry plane reports — wall-clock units/sec (engine raw
// speed), bind-loop pass cost (the late binder's rescan amplification),
// and virtual-time turnaround percentiles. BENCH_scale.json pins the
// numbers so a regression (or a win) is visible; since the
// capacity-indexed bind loop landed, offered/units sits near 2 and the
// sweep is what guards it staying there.
//
// The workload is deterministic per seed: 1-core units with a small
// deterministic spread of virtual runtimes, bound by the backfill
// scheduler (late binding — the policy whose parked set the old bind
// loop re-offered wholesale on every kick, the O(N²) behavior the
// Offered counter exposes).

// DefaultScales are the unit counts the sweep runs at.
var DefaultScales = []int{100, 1000, 10000, 100000}

// ScaleRow is one scale's measurements.
type ScaleRow struct {
	// Units and Pilots are the cell's workload size and pilot count;
	// Nodes the machine size backing the pilots.
	Units  int `json:"units"`
	Pilots int `json:"pilots"`
	Nodes  int `json:"nodes"`
	// Makespan is submission to last completion in virtual time.
	Makespan time.Duration `json:"makespan"`
	// Wall is the host wall-clock cost of the whole cell (engine run);
	// UnitsPerSec is Units/Wall — the engine's raw speed, the number
	// BENCH_scale.json exists to track.
	Wall        time.Duration `json:"wall"`
	UnitsPerSec float64       `json:"units_per_sec"`
	// BindPasses and Offered are the bind loop's work counters: batches
	// run and units handed to the policy across them. Offered/Units is
	// the rescan amplification the backfill binder pays.
	BindPasses int64 `json:"bind_passes"`
	Offered    int64 `json:"offered"`
	// BindMean is the mean UMGR_SCHEDULING→bind latency in virtual
	// seconds, from the telemetry plane's histogram.
	BindMean float64 `json:"bind_mean_sec"`
	// TurnP50/TurnP95 are unit turnaround (submission→DONE, virtual)
	// percentiles estimated over a bounded reservoir — the sweep holds
	// one reservoir slot, not one duration, per unit.
	TurnP50 time.Duration `json:"turn_p50"`
	TurnP95 time.Duration `json:"turn_p95"`
	// Events is the flight-recorder stream length the cell produced.
	Events int `json:"events"`
	// SimEvents, Parks, Switches and Spawns are the engine's work
	// counters for the cell (sim.Engine.Stats): events popped, blocking
	// calls, handoffs of control between processes, and processes
	// spawned. Like BindPasses they are deterministic per seed, so CI can
	// gate them tightly.
	SimEvents int64 `json:"sim_events"`
	Parks     int64 `json:"parks"`
	Switches  int64 `json:"switches"`
	Spawns    int64 `json:"spawns"`
}

// scalePilots sizes the pilot fleet for n units: grows with the
// workload, capped where more pilots stop informing the measurement.
func scalePilots(n int) int {
	p := n / 64
	if p < 2 {
		p = 2
	}
	if p > 16 {
		p = 16
	}
	return p
}

// RunScaleSweep runs the workload at each scale and returns one row per
// scale. Virtual-time results are deterministic per seed; Wall and
// UnitsPerSec are host measurements.
func RunScaleSweep(seed int64, scales []int) ([]*ScaleRow, error) {
	if len(scales) == 0 {
		scales = DefaultScales
	}
	var rows []*ScaleRow
	for _, n := range scales {
		row, err := runScaleCell(seed, n)
		if err != nil {
			return nil, fmt.Errorf("scale %d: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runScaleCell runs one scale: fresh engine, fresh pilots, n units.
func runScaleCell(seed int64, n int) (*ScaleRow, error) {
	pilots := scalePilots(n)
	bcfg := testbedBatch(seed)
	bcfg.DefaultWallTime = 8 * time.Hour
	// The cell always records: the telemetry plane is the measurement
	// instrument here, not an optional observer. A private registry
	// keeps this scale's numbers separate; the recorder additionally
	// feeds the live endpoint's shared registry when one is installed.
	env, err := newEnv(testbed("scale", 2*pilots), bcfg, schedProfile(), true) // two nodes per pilot
	if err != nil {
		return nil, err
	}
	env.Label = fmt.Sprintf("scale/%d", n)
	defer env.Close()
	eng, session, rec := env.Eng, env.Session, env.Rec
	reg := pilot.NewMetricsRegistry()
	rec.OnRecord(pilot.NewMetricsBridge(reg).Apply)

	row := &ScaleRow{Units: n, Pilots: pilots, Nodes: 2 * pilots}
	turn := metrics.NewReservoir(4096, seed)
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		um, err := pilot.NewUnitManager(session, pilot.WithScheduler(pilot.SchedulerBackfill))
		if err != nil {
			runErr = err
			return
		}
		var pls []*pilot.Pilot
		for i := 0; i < pilots; i++ {
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: "scale", Nodes: 2, Runtime: 8 * time.Hour, Mode: pilot.ModeHPC,
			})
			if err != nil {
				runErr = err
				return
			}
			pls = append(pls, pl)
		}
		for _, pl := range pls {
			if !pl.WaitState(p, pilot.PilotActive) {
				runErr = fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
				return
			}
			um.AddPilot(pl)
		}

		descs := make([]pilot.ComputeUnitDescription, n)
		for i := range descs {
			// A deterministic spread of short runtimes, so waves don't
			// complete in lockstep and the backfill binder keeps
			// rescanning a shrinking queue — the cost being measured.
			d := 4*time.Second + time.Duration(i%7)*500*time.Millisecond
			descs[i] = pilot.ComputeUnitDescription{
				Cores: 1,
				Body:  func(bp *sim.Proc, ctx *pilot.UnitContext) { bp.Sleep(d) },
			}
		}
		start := p.Now()
		units, err := um.Submit(p, descs)
		if err != nil {
			runErr = err
			return
		}
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				runErr = fmt.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
				return
			}
			turn.Add(u.Timestamps[pilot.UnitDone] - start)
		}
		row.Makespan = p.Now() - start
		row.BindPasses, row.Offered = um.BindPassStats()
		for _, pl := range pls {
			pl.Cancel()
		}
	})
	wallStart := time.Now()
	eng.Run()
	row.Wall = time.Since(wallStart)
	row.SimEvents, row.Parks, row.Switches, row.Spawns = eng.Stats()
	if runErr != nil {
		return nil, runErr
	}

	// The telemetry plane must agree with the driver's ground truth —
	// this is the sweep doubling as an end-to-end check of the bridge.
	if done := reg.Total("pilot_units_done"); int(done) != n {
		return nil, fmt.Errorf("telemetry counted %v done units, driver saw %d", done, n)
	}
	count, sum := reg.HistogramStats("bind_latency_seconds")
	if int(count) != n {
		return nil, fmt.Errorf("telemetry observed %d bind latencies, want %d", count, n)
	}
	row.BindMean = sum / float64(count)
	row.TurnP50, row.TurnP95 = turn.P50(), turn.P95()
	row.Events = rec.Len()
	if row.Wall > 0 {
		row.UnitsPerSec = float64(n) / row.Wall.Seconds()
	}
	return row, nil
}

// CheckScaleSweep asserts the sweep's structural invariants — shared by
// cmd/repro and the tests.
func CheckScaleSweep(rows []*ScaleRow, scales []int) error {
	if len(scales) == 0 {
		scales = DefaultScales
	}
	if len(rows) != len(scales) {
		return fmt.Errorf("scale sweep: %d rows, want %d", len(rows), len(scales))
	}
	for i, r := range rows {
		if r.Units != scales[i] {
			return fmt.Errorf("scale row %d: units %d, want %d", i, r.Units, scales[i])
		}
		if r.UnitsPerSec <= 0 {
			return fmt.Errorf("scale %d: units/sec %v not positive", r.Units, r.UnitsPerSec)
		}
		if r.Makespan <= 0 {
			return fmt.Errorf("scale %d: makespan %v not positive", r.Units, r.Makespan)
		}
		if r.BindPasses < 1 {
			return fmt.Errorf("scale %d: no bind passes counted", r.Units)
		}
		if r.Offered < int64(r.Units) {
			return fmt.Errorf("scale %d: offered %d < units", r.Units, r.Offered)
		}
		if r.TurnP95 < r.TurnP50 {
			return fmt.Errorf("scale %d: P95 %v < P50 %v", r.Units, r.TurnP95, r.TurnP50)
		}
	}
	return nil
}

// WriteScaleSweep renders the sweep table.
func WriteScaleSweep(w io.Writer, rows []*ScaleRow) {
	fmt.Fprintln(w, "Scale sweep: 1-core units under the backfill binder, pilots grow with the workload")
	fmt.Fprintln(w, "(units/sec is host wall-clock engine speed; offered/units is the bind loop's rescan amplification)")
	t := metrics.NewTable("units", "pilots", "makespan (s)", "wall (ms)", "units/sec",
		"bind passes", "offered", "bind mean (s)", "turn p50 (s)", "turn p95 (s)")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Units),
			fmt.Sprintf("%d", r.Pilots),
			metrics.Seconds(r.Makespan),
			fmt.Sprintf("%d", r.Wall.Milliseconds()),
			fmt.Sprintf("%.0f", r.UnitsPerSec),
			fmt.Sprintf("%d", r.BindPasses),
			fmt.Sprintf("%d", r.Offered),
			fmt.Sprintf("%.2f", r.BindMean),
			metrics.Seconds(r.TurnP50),
			metrics.Seconds(r.TurnP95),
		)
	}
	t.Write(w)
}

// WriteScaleBenchJSON emits the sweep in the same document shape
// cmd/benchjson produces from `go test -bench` output, so
// BENCH_scale.json sits beside the other BENCH_*.json artifacts and
// the same tooling reads them all.
func WriteScaleBenchJSON(w io.Writer, rows []*ScaleRow) error {
	type result struct {
		Name       string             `json:"name"`
		Pkg        string             `json:"pkg,omitempty"`
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	doc := struct {
		GOOS       string   `json:"goos,omitempty"`
		GOARCH     string   `json:"goarch,omitempty"`
		Package    string   `json:"pkg,omitempty"`
		Benchmarks []result `json:"benchmarks"`
	}{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Package: "repro/internal/experiments", Benchmarks: []result{},
	}
	for _, r := range rows {
		doc.Benchmarks = append(doc.Benchmarks, result{
			Name: fmt.Sprintf("BenchmarkScaleSweep/units=%d", r.Units),
			Pkg:  doc.Package, Iterations: 1,
			Metrics: map[string]float64{
				"units/sec":    r.UnitsPerSec,
				"sim-sec":      r.Makespan.Seconds(),
				"wall-ms":      float64(r.Wall.Milliseconds()),
				"pilots":       float64(r.Pilots),
				"bind-passes":  float64(r.BindPasses),
				"offered":      float64(r.Offered),
				"bind-mean-s":  r.BindMean,
				"turn-p50-s":   r.TurnP50.Seconds(),
				"turn-p95-s":   r.TurnP95.Seconds(),
				"trace-events": float64(r.Events),
				"sim-events":   float64(r.SimEvents),
				"parks":        float64(r.Parks),
				"switches":     float64(r.Switches),
				"spawns":       float64(r.Spawns),
			},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
