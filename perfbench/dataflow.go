package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/pilot"
)

// The Hadoop-style dataflow: map→reduce groups (four maps feeding one
// reduce) submitted as one UnitGraph under critical-path ordering to
// Mode I YARN pilots, each with an in-memory data pilot attached, placed
// by co-locate behind a result cache. Once half of the maps are done,
// every map is submitted again: the finished ones are cache hits, the
// rest coalesce onto their in-flight leader.
const (
	dataflowGroups    = 300
	dataflowMaps      = 4 // per group
	dataflowPilots    = 4
	dataflowPartBytes = 64 << 20
	dataflowMapOut    = 16 << 20
	dataflowReduceOut = 8 << 20
)

// dataflowUnits counts the units one cell submits: the graph plus one
// duplicate per map.
func dataflowUnits() int { return dataflowGraphUnits() + dataflowDuplicates() }

func dataflowGraphUnits() int { return dataflowGroups * (dataflowMaps + 1) }

func dataflowDuplicates() int { return dataflowGroups * dataflowMaps }

// genDataflow deals a fixed set of distinct map and reduce work values
// to the units in a seeded order, and the partitions evenly over the
// data pilots in a seeded order: every seed has the same total work and
// per-pilot data, so seeds differ in arrangement, not in size. Distinct
// values keep completions from coinciding in numbers that depend on the
// arrangement.
func genDataflow(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	maps := dataflowGroups * dataflowMaps
	in := inputs{
		mapWork:    make([]float64, maps),
		reduceWork: make([]float64, dataflowGroups),
		placement:  make([]int, maps),
	}
	for i := range in.mapWork {
		in.mapWork[i] = 4 + 8*float64(i)/float64(maps)
	}
	for i := range in.reduceWork {
		in.reduceWork[i] = 2 + 4*float64(i)/float64(dataflowGroups)
	}
	rng.Shuffle(len(in.mapWork), func(i, j int) { in.mapWork[i], in.mapWork[j] = in.mapWork[j], in.mapWork[i] })
	rng.Shuffle(len(in.reduceWork), func(i, j int) { in.reduceWork[i], in.reduceWork[j] = in.reduceWork[j], in.reduceWork[i] })
	for i := range in.placement {
		in.placement[i] = i % dataflowPilots
	}
	rng.Shuffle(len(in.placement), func(i, j int) { in.placement[i], in.placement[j] = in.placement[j], in.placement[i] })
	return in
}

func runDataflow(in inputs, m mode) (*cell, error) {
	c := &cell{submitted: dataflowUnits(), duplicates: dataflowDuplicates(), distinct: dataflowGraphUnits()}
	setupStart := time.Now()
	e, err := newEnv("dataflow", 2*dataflowPilots, nil)
	if err != nil {
		return nil, err
	}
	defer e.eng.Close()

	var runErr error
	e.eng.Spawn("client", func(p *sim.Proc) {
		um, err := pilot.NewUnitManager(e.session,
			pilot.WithScheduler(pilot.SchedulerCoLocate), pilot.WithResultCache(1<<40))
		if err != nil {
			runErr = err
			return
		}
		t0 := time.Now()
		pls, err := bringUp(p, e.session, pilot.PilotDescription{
			Resource: "dataflow", Nodes: 2, Runtime: 8 * time.Hour, Mode: pilot.ModeYARN,
		}, dataflowPilots)
		if err != nil {
			runErr = err
			return
		}
		c.bringupS = time.Since(t0)
		dm := pilot.NewDataManager(e.session)
		for i, pl := range pls {
			dp, err := dm.AddPilot(pilot.DataPilotDescription{
				Backend: pilot.DataBackendMem, Label: fmt.Sprintf("mem-%d", i),
				CapacityBytes: 64 << 30, MemBytesPerSec: 8e9,
			})
			if err != nil {
				runErr = err
				return
			}
			if err := pl.AttachDataPilot(dp); err != nil {
				runErr = err
				return
			}
			if err := um.AddPilot(pl); err != nil {
				runErr = err
				return
			}
		}

		t0 = time.Now()
		parts := make([]*pilot.DataUnit, len(in.placement))
		for i, at := range in.placement {
			if parts[i], err = dm.Submit(p, pilot.DataUnitDescription{
				Name: fmt.Sprintf("/in/part-%04d", i), SizeBytes: dataflowPartBytes,
				Affinity: fmt.Sprintf("mem-%d", at),
			}); err != nil {
				runErr = err
				return
			}
		}
		c.prestageS = time.Since(t0)

		body := func(work float64) pilot.UnitBody {
			return func(bp *sim.Proc, ctx *pilot.UnitContext) {
				c.executions++
				ctx.Node.Compute(bp, work)
			}
		}
		g := pilot.NewUnitGraph()
		mapDescs := make([]pilot.ComputeUnitDescription, 0, dataflowDuplicates())
		for grp := 0; grp < dataflowGroups; grp++ {
			shuffle := make([]pilot.DataRef, dataflowMaps)
			for k := 0; k < dataflowMaps; k++ {
				i := grp*dataflowMaps + k
				out, err := dm.Declare(pilot.DataUnitDescription{
					Name: fmt.Sprintf("/map/%03d-%d", grp, k), SizeBytes: dataflowMapOut,
				})
				if err != nil {
					runErr = err
					return
				}
				shuffle[k] = pilot.DataRef{Unit: out}
				d := pilot.ComputeUnitDescription{
					Name:       fmt.Sprintf("map-%03d-%d", grp, k),
					Executable: "/bin/map",
					Arguments:  []string{fmt.Sprintf("--part=%d", i)},
					Cores:      1,
					Inputs:     []pilot.DataRef{{Unit: parts[i]}},
					Outputs:    []pilot.DataRef{{Unit: out}},
					Body:       body(in.mapWork[i]),
				}
				n, err := g.Add(d)
				if err != nil {
					runErr = err
					return
				}
				n.SetWork(in.mapWork[i])
				mapDescs = append(mapDescs, d)
			}
			out, err := dm.Declare(pilot.DataUnitDescription{
				Name: fmt.Sprintf("/reduce/%03d", grp), SizeBytes: dataflowReduceOut,
			})
			if err != nil {
				runErr = err
				return
			}
			n, err := g.Add(pilot.ComputeUnitDescription{
				Name:       fmt.Sprintf("reduce-%03d", grp),
				Executable: "/bin/reduce",
				Arguments:  []string{fmt.Sprintf("--group=%d", grp)},
				Cores:      1,
				Inputs:     shuffle,
				Outputs:    []pilot.DataRef{{Unit: out}},
				Body:       body(in.reduceWork[grp]),
			})
			if err != nil {
				runErr = err
				return
			}
			n.SetWork(in.reduceWork[grp])
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
		if runErr = g.Validate(); runErr != nil {
			return
		}
		c.admitS = time.Since(t0)
		t0 = time.Now()
		units, err := g.Submit(p, um, pilot.WithGraphOrdering(pilot.OrderCriticalPath))
		c.submitS = time.Since(t0)
		if err != nil {
			runErr = err
			return
		}
		// Resubmit every map once half of them are done.
		half := sim.NewEvent(e.eng)
		mapsDone := 0
		for _, n := range g.Nodes() {
			if n.Unit().Desc.Executable != "/bin/map" {
				continue
			}
			n.Unit().OnStateChange(func(_ *pilot.Unit, st pilot.UnitState) {
				if st == pilot.UnitDone {
					if mapsDone++; mapsDone == dataflowDuplicates()/2 {
						half.Trigger()
					}
				}
			})
		}
		p.Wait(half)
		t0 = time.Now()
		dups, err := um.Submit(p, mapDescs)
		c.submitS += time.Since(t0)
		if err != nil {
			runErr = err
			return
		}
		units = append(units, dups...)
		um.WaitAll(p, units)
		c.profile = prof.stop()
		turnaround(c, units, start, p.Now())
		tm.stop(c)
		c.bindPasses, c.offered = um.BindPassStats()
		st := um.ClusterView().Cache
		c.hits, c.coalesced = int(st.Hits), int(st.Coalesced)
		cancelAll(pls)
	})
	e.eng.Run()
	return c, runErr
}
