package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/pilot"
)

// The DAG-scheduling comparison: one skewed map → shuffle → reduce
// workload submitted as a UnitGraph, run once with critical-path
// ordering and once with FIFO (Add-order) binding. The DAG's skew is a
// three-stage heavy chain whose total work dominates every other path:
// FIFO buries the chain's head behind the wide fan of short maps, while
// critical-path ordering starts it in the first wave, so the chain —
// not the maps — sets the makespan.
const (
	dagLightMaps  = 24
	dagLightWork  = 8 // abstract compute-seconds per light map
	dagHeavyLinks = 3
	dagHeavyWork  = 25
	dagReduces    = 4
	dagReduceWork = 6
	dagMergeWork  = 3

	dagUnitCores = 2

	dagLightPartBytes = 64 << 20
	dagHeavyPartBytes = 256 << 20
	dagMapOutBytes    = 16 << 20
	dagChainMidBytes  = 128 << 20
	dagReduceOutBytes = 8 << 20
)

// DAGUnits returns the number of Compute-Units in the comparison graph.
func DAGUnits() int { return dagLightMaps + dagHeavyLinks + dagReduces + 1 }

// dagHeldAtSubmit is how many graph units must sit in UMGR_PENDING_INPUT
// right after Submit: everything except the light maps and the chain's
// head, whose inputs are pre-staged.
func dagHeldAtSubmit() int { return DAGUnits() - dagLightMaps - 1 }

// DAGRow is one cell of the comparison.
type DAGRow struct {
	// Ordering is the graph bind ordering the cell ran under.
	Ordering pilot.GraphOrdering
	// CriticalPath is the graph's critical-path length in abstract
	// work-seconds (the heavy chain plus reduce and merge) — identical
	// across cells; reported to show what the ordering prioritizes.
	CriticalPath float64
	// HeldAtSubmit counts units parked in UMGR_PENDING_INPUT right
	// after graph admission — the dependency-aware hold at work.
	HeldAtSubmit int
	// HeavyStart is when the heavy chain's head began executing,
	// relative to graph submission.
	HeavyStart time.Duration
	// Makespan is graph submission to the last unit's final state.
	Makespan time.Duration
}

// RunDAGComparison runs the same skewed DAG under critical-path and
// FIFO ordering: fresh environment per cell, same machine, same seed,
// only the ordering varies.
func RunDAGComparison(seed int64) ([]*DAGRow, error) {
	var rows []*DAGRow
	for _, ord := range []pilot.GraphOrdering{pilot.OrderCriticalPath, pilot.OrderFIFO} {
		row, err := runDAGCell(ord, seed)
		if err != nil {
			return nil, fmt.Errorf("dag comparison %s: %w", ord, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runDAGCell executes the graph under one ordering.
func runDAGCell(ord pilot.GraphOrdering, seed int64) (*DAGRow, error) {
	// Two nodes, so the graph's 2-core units run at most eight wide and
	// the bind order decides what the first waves carry. The cell always
	// runs with a flight recorder: its event stream is what the
	// bind-invariant check below audits, tap or no tap.
	env, err := newEnv(testbed("dag", 2), testbedBatch(seed), schedProfile(), true)
	if err != nil {
		return nil, err
	}
	env.Label = "dag/" + ord.String()
	defer env.Close()
	eng, session, rec := env.Eng, env.Session, env.Rec

	row := &DAGRow{Ordering: ord}
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "dag", Nodes: 2, Runtime: 2 * time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			runErr = err
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			runErr = fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
			return
		}
		dm := pilot.NewDataManager(session)
		dp, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendMem, Label: "mem",
			CapacityBytes: 16 << 30, MemBytesPerSec: 8e9,
		})
		if err != nil {
			runErr = err
			return
		}
		if err := pl.AttachDataPilot(dp); err != nil {
			runErr = err
			return
		}
		um, err := pilot.NewUnitManager(session, pilot.WithScheduler(pilot.SchedulerBackfill))
		if err != nil {
			runErr = err
			return
		}
		um.AddPilot(pl)

		// Pre-stage the source partitions, declare every intermediate.
		stagePart := func(name string, size int64) (*pilot.DataUnit, error) {
			return dm.Submit(p, pilot.DataUnitDescription{
				Name: name, SizeBytes: size, Affinity: "mem",
			})
		}
		declare := func(name string, size int64) (*pilot.DataUnit, error) {
			return dm.Declare(pilot.DataUnitDescription{Name: name, SizeBytes: size})
		}
		compute := func(work float64) func(*sim.Proc, *pilot.UnitContext) {
			return func(bp *sim.Proc, ctx *pilot.UnitContext) {
				ctx.Node.Compute(bp, work)
			}
		}

		g := pilot.NewUnitGraph()
		// The shuffle: every reduce reads every map output — the 24
		// light outputs plus the heavy chain's final link.
		var mapOuts []*pilot.DataUnit
		for i := 0; i < dagLightMaps; i++ {
			part, err := stagePart(fmt.Sprintf("/dag/part-%02d", i), dagLightPartBytes)
			if err != nil {
				runErr = err
				return
			}
			out, err := declare(fmt.Sprintf("/dag/map-out-%02d", i), dagMapOutBytes)
			if err != nil {
				runErr = err
				return
			}
			mapOuts = append(mapOuts, out)
			n, err := g.Add(pilot.ComputeUnitDescription{
				Name:    fmt.Sprintf("map-%02d", i),
				Cores:   dagUnitCores,
				Inputs:  []pilot.DataRef{{Unit: part}},
				Outputs: []pilot.DataRef{{Unit: out}},
				Body:    compute(dagLightWork),
			})
			if err != nil {
				runErr = err
				return
			}
			n.SetWork(dagLightWork)
		}
		heavyIn, err := stagePart("/dag/heavy-part", dagHeavyPartBytes)
		if err != nil {
			runErr = err
			return
		}
		for i := 0; i < dagHeavyLinks; i++ {
			size, name := int64(dagChainMidBytes), fmt.Sprintf("/dag/heavy-mid-%d", i)
			if i == dagHeavyLinks-1 {
				// The chain's last link emits a map output into the shuffle.
				size, name = dagMapOutBytes, "/dag/heavy-out"
			}
			out, err := declare(name, size)
			if err != nil {
				runErr = err
				return
			}
			n, err := g.Add(pilot.ComputeUnitDescription{
				Name:    fmt.Sprintf("heavy-%d", i),
				Cores:   dagUnitCores,
				Inputs:  []pilot.DataRef{{Unit: heavyIn}},
				Outputs: []pilot.DataRef{{Unit: out}},
				Body:    compute(dagHeavyWork),
			})
			if err != nil {
				runErr = err
				return
			}
			n.SetWork(dagHeavyWork)
			heavyIn = out
		}
		mapOuts = append(mapOuts, heavyIn)
		shuffle := make([]pilot.DataRef, len(mapOuts))
		for i, du := range mapOuts {
			shuffle[i] = pilot.DataRef{Unit: du}
		}
		var reduceOuts []pilot.DataRef
		for i := 0; i < dagReduces; i++ {
			out, err := declare(fmt.Sprintf("/dag/reduce-out-%d", i), dagReduceOutBytes)
			if err != nil {
				runErr = err
				return
			}
			reduceOuts = append(reduceOuts, pilot.DataRef{Unit: out})
			n, err := g.Add(pilot.ComputeUnitDescription{
				Name:    fmt.Sprintf("reduce-%d", i),
				Cores:   dagUnitCores,
				Inputs:  shuffle,
				Outputs: []pilot.DataRef{{Unit: out}},
				Body:    compute(dagReduceWork),
			})
			if err != nil {
				runErr = err
				return
			}
			n.SetWork(dagReduceWork)
		}
		merge, err := g.Add(pilot.ComputeUnitDescription{
			Name:   "merge",
			Cores:  dagUnitCores,
			Inputs: reduceOuts,
			Body:   compute(dagMergeWork),
		})
		if err != nil {
			runErr = err
			return
		}
		merge.SetWork(dagMergeWork)

		start := p.Now()
		units, err := g.Submit(p, um, pilot.WithGraphOrdering(ord))
		if err != nil {
			runErr = err
			return
		}
		head, _ := g.Node("heavy-0")
		row.CriticalPath = head.CriticalPath()
		row.HeldAtSubmit = um.ClusterView().HeldUnits
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				runErr = fmt.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
				return
			}
		}
		row.HeavyStart = head.Unit().Timestamps[pilot.UnitExecuting] - start
		row.Makespan = p.Now() - start
		pl.Cancel()
	})
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	// Recorder invariants: every graph unit reached DONE through exactly
	// one bind decision (no cache here, so no zero-bind completions).
	events := rec.Events()
	if err := pilot.VerifyBinds(events); err != nil {
		return nil, fmt.Errorf("recorder bind invariants (%s): %w", ord, err)
	}
	if got := pilot.DoneUnits(events); got != DAGUnits() {
		return nil, fmt.Errorf("recorder saw %d DONE units, want %d", got, DAGUnits())
	}
	return row, nil
}

// CheckDAGComparison asserts the properties the comparison exists to
// show; cmd/repro and the test suite share it so the claim "critical
// path beats FIFO on a skewed DAG" is pinned in both places.
func CheckDAGComparison(rows []*DAGRow) error {
	if len(rows) != 2 {
		return fmt.Errorf("dag comparison: %d rows, want 2", len(rows))
	}
	cp, fifo := rows[0], rows[1]
	if cp.Ordering != pilot.OrderCriticalPath || fifo.Ordering != pilot.OrderFIFO {
		return fmt.Errorf("dag comparison rows out of order: %s, %s", cp.Ordering, fifo.Ordering)
	}
	for _, r := range rows {
		if r.HeldAtSubmit != dagHeldAtSubmit() {
			return fmt.Errorf("dag %s: %d units held at submit, want %d",
				r.Ordering, r.HeldAtSubmit, dagHeldAtSubmit())
		}
	}
	if cp.HeavyStart >= fifo.HeavyStart {
		return fmt.Errorf("dag: critical-path started the heavy chain at %s, not before FIFO's %s",
			metrics.Seconds(cp.HeavyStart), metrics.Seconds(fifo.HeavyStart))
	}
	if cp.Makespan >= fifo.Makespan {
		return fmt.Errorf("dag: critical-path makespan %s did not beat FIFO's %s",
			metrics.Seconds(cp.Makespan), metrics.Seconds(fifo.Makespan))
	}
	return nil
}

// WriteDAGComparison renders the comparison table.
func WriteDAGComparison(w io.Writer, rows []*DAGRow) {
	fmt.Fprintln(w, "UnitGraph ordering comparison: skewed map -> shuffle -> reduce DAG, one Mode I pilot")
	fmt.Fprintf(w, "(%d light maps, a %d-stage heavy chain, %d reduces + merge; %d units, bind ordering varies per row)\n",
		dagLightMaps, dagHeavyLinks, dagReduces, DAGUnits())
	t := metrics.NewTable("ordering", "critical path (s)", "held at submit", "heavy start (s)", "makespan (s)")
	for _, r := range rows {
		t.AddRow(r.Ordering.String(), fmt.Sprintf("%.0f", r.CriticalPath),
			fmt.Sprintf("%d", r.HeldAtSubmit),
			metrics.Seconds(r.HeavyStart), metrics.Seconds(r.Makespan))
	}
	t.Write(w)
}
