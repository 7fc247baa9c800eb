package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/pilot"
)

// The staging-comparison cells: the same shuffle-heavy K-Means workload
// over two Mode I YARN pilots, with the input partitions held by
// different Pilot-Data tiers.
const (
	// StagingRemote is the paper's remote-staging mode: partitions live
	// on a shared-Lustre data pilot, placement is data-blind
	// ("backfill"), and every map task stages its partition through the
	// contended shared filesystem each iteration.
	StagingRemote = "remote-staging"
	// StagingCoLocated holds the partitions in per-pilot HDFS data
	// pilots and places compute with the "co-locate" policy: map tasks
	// bind to the pilot whose store holds their partition and read it
	// from node-local disks.
	StagingCoLocated = "co-located"
	// StagingInMemory is the Pilot-in-Memory tier: per-pilot in-memory
	// data pilots, co-located placement, reads at memory bandwidth.
	StagingInMemory = "in-memory"
)

// StagingRow is one cell of the comparison.
type StagingRow struct {
	Mode string
	// Policy is the unit-scheduling policy the cell ran under.
	Policy string
	// StageIn is the initial data distribution: declaring the
	// partitions and placing their replicas on the data pilots.
	StageIn time.Duration
	// Makespan is first compute submission to the last unit's final
	// state, over all iterations.
	Makespan time.Duration
	// LocalInputs counts map executions whose partition was held by
	// their pilot's attached data pilot; RemoteInputs the rest.
	LocalInputs  int
	RemoteInputs int
}

// The shuffle-heavy K-Means workload: partitions staged in every
// iteration, a shuffle emission to the sandbox per map task, one light
// aggregation per iteration.
const (
	stagingParts     = 8
	stagingPartBytes = 256 << 20
	stagingIters     = 3
	stagingMapCores  = 2
	stagingMapWork   = 6 // abstract compute-seconds per map task
	stagingEmitBytes = 96 << 20
	stagingEmitOps   = 3000 // per-record flushes: the shuffle-heavy part
	stagingAggWork   = 4
)

// stagingSpec is the comparison machine: six 8-core nodes whose local
// disks are individually faster than each node's fair share of the
// deliberately modest Lustre — the paper's motivation for putting data
// next to compute.
func stagingSpec() cluster.MachineSpec {
	spec := testbed("staging", 6)
	spec.Lustre.AggregateBW = 250e6
	return spec
}

// StagingBytesDistributed returns the total bytes the initial
// distribution stages (partitions × partition size), the numerator of
// the staging-throughput benchmark metric.
func StagingBytesDistributed() int64 { return stagingParts * stagingPartBytes }

// RunStagingComparison reproduces the Lustre-vs-HDFS staging trade-off
// through the Pilot-Data layer: the same workload, same machine, same
// seed per cell, with only the data tier and placement policy varying.
func RunStagingComparison(seed int64) ([]*StagingRow, error) {
	var rows []*StagingRow
	for _, mode := range []string{StagingRemote, StagingCoLocated, StagingInMemory} {
		row, err := runStagingCell(mode, seed)
		if err != nil {
			return nil, fmt.Errorf("staging comparison %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runStagingCell executes the workload on a fresh environment with the
// mode's data tier.
func runStagingCell(mode string, seed int64) (*StagingRow, error) {
	env, err := newEnv(stagingSpec(), testbedBatch(seed), schedProfile(), false)
	if err != nil {
		return nil, err
	}
	env.Label = "data/" + mode
	defer env.Close()
	eng, session, m := env.Eng, env.Session, env.Machine

	policy := pilot.SchedulerCoLocate
	if mode == StagingRemote {
		policy = pilot.SchedulerBackfill
	}
	row := &StagingRow{Mode: mode, Policy: policy}
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		var pilots []*pilot.Pilot
		for i := 0; i < 2; i++ {
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: "staging", Nodes: 2, Runtime: 2 * time.Hour, Mode: pilot.ModeYARN,
			})
			if err != nil {
				runErr = err
				return
			}
			pilots = append(pilots, pl)
		}
		um, err := pilot.NewUnitManager(session, pilot.WithScheduler(policy))
		if err != nil {
			runErr = err
			return
		}
		for _, pl := range pilots {
			if err := um.AddPilot(pl); err != nil {
				runErr = err
				return
			}
			if !pl.WaitState(p, pilot.PilotActive) {
				runErr = fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
				return
			}
		}

		// The data tier: one shared-Lustre pilot for remote staging,
		// one per-compute-pilot store for the co-located modes.
		dm := pilot.NewDataManager(session)
		var labels []string
		switch mode {
		case StagingRemote:
			if _, err := dm.AddPilot(pilot.DataPilotDescription{
				Backend: pilot.DataBackendLustre, Label: "shared", Lustre: m.Lustre,
			}); err != nil {
				runErr = err
				return
			}
		case StagingCoLocated:
			for i, pl := range pilots {
				label := fmt.Sprintf("hdfs-%d", i)
				dp, err := dm.AddPilot(pilot.DataPilotDescription{
					Backend: pilot.DataBackendHDFS, Label: label, HDFS: pl.HDFS(),
				})
				if err != nil {
					runErr = err
					return
				}
				if err := pl.AttachDataPilot(dp); err != nil {
					runErr = err
					return
				}
				labels = append(labels, label)
			}
		case StagingInMemory:
			for i, pl := range pilots {
				label := fmt.Sprintf("mem-%d", i)
				dp, err := dm.AddPilot(pilot.DataPilotDescription{
					Backend: pilot.DataBackendMem, Label: label,
					CapacityBytes: 8 << 30, MemBytesPerSec: 8e9,
				})
				if err != nil {
					runErr = err
					return
				}
				if err := pl.AttachDataPilot(dp); err != nil {
					runErr = err
					return
				}
				labels = append(labels, label)
			}
		}

		// Distribute the partitions: alternating affinity in the
		// co-located modes, unpinned on the shared tier.
		stageStart := p.Now()
		parts := make([]*pilot.DataUnit, stagingParts)
		for i := range parts {
			desc := pilot.DataUnitDescription{
				Name:      fmt.Sprintf("/kmeans/part-%02d", i),
				SizeBytes: stagingPartBytes,
			}
			if len(labels) > 0 {
				desc.Affinity = labels[i%len(labels)]
			}
			du, err := dm.Submit(p, desc)
			if err != nil {
				runErr = err
				return
			}
			parts[i] = du
		}
		row.StageIn = p.Now() - stageStart

		start := p.Now()
		for iter := 0; iter < stagingIters; iter++ {
			descs := make([]pilot.ComputeUnitDescription, stagingParts)
			for i := range descs {
				descs[i] = pilot.ComputeUnitDescription{
					Name:   fmt.Sprintf("kmeans-map-i%d-t%d", iter, i),
					Cores:  stagingMapCores,
					Inputs: []pilot.DataRef{{Unit: parts[i]}},
					Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
						ctx.Node.Compute(bp, stagingMapWork)
						ctx.Sandbox.StreamWrite(bp, stagingEmitBytes, stagingEmitOps)
					},
				}
			}
			units, err := um.Submit(p, descs)
			if err != nil {
				runErr = err
				return
			}
			um.WaitAll(p, units)
			for i, u := range units {
				if u.State() != pilot.UnitDone {
					runErr = fmt.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
					return
				}
				if dp := u.Pilot.DataPilot(); dp != nil && parts[i].ReplicaOn(dp) {
					row.LocalInputs++
				} else {
					row.RemoteInputs++
				}
			}
			agg, err := um.Submit(p, []pilot.ComputeUnitDescription{{
				Name:  fmt.Sprintf("kmeans-agg-i%d", iter),
				Cores: 1,
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					ctx.Node.Compute(bp, stagingAggWork)
					ctx.Shared.Write(bp, 1<<20)
				},
			}})
			if err != nil {
				runErr = err
				return
			}
			um.WaitAll(p, agg)
			if agg[0].State() != pilot.UnitDone {
				runErr = fmt.Errorf("aggregation finished %v: %v", agg[0].State(), agg[0].Err)
				return
			}
		}
		row.Makespan = p.Now() - start
		for _, pl := range pilots {
			pl.Cancel()
		}
	})
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	return row, nil
}

// WriteStagingComparison renders the comparison table.
func WriteStagingComparison(w io.Writer, rows []*StagingRow) {
	fmt.Fprintln(w, "Pilot-Data staging comparison: shuffle-heavy K-Means over two Mode I YARN pilots")
	fmt.Fprintf(w, "(%d partitions x %d MB, %d iterations; data tier and placement vary per row)\n",
		stagingParts, stagingPartBytes>>20, stagingIters)
	t := metrics.NewTable("mode", "policy", "stage-in (s)", "makespan (s)", "local inputs", "remote inputs")
	for _, r := range rows {
		t.AddRow(r.Mode, r.Policy, metrics.Seconds(r.StageIn), metrics.Seconds(r.Makespan),
			fmt.Sprintf("%d", r.LocalInputs), fmt.Sprintf("%d", r.RemoteInputs))
	}
	t.Write(w)
}
