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

// The scheduler-comparison workloads, both over a heterogeneous
// two-pilot setup (one plain HPC pilot, one YARN pilot).
const (
	// WorkloadBurst: a burst of short compute units submitted while the
	// Mode I YARN pilot is still spawning its Hadoop cluster. Eager
	// policies commit half the burst to the not-yet-ready pilot; the
	// backfill policy late-binds onto whatever is Active with free
	// capacity.
	WorkloadBurst = "burst"
	// WorkloadDataLocality: a mix of data-intensive units (inputs hosted
	// on the Mode II pilot's dedicated HDFS) and compute units. Policies
	// blind to data placement send half the data units to the HPC pilot,
	// which must fetch the inputs over the slow external link; the
	// locality policy routes them to the pilot hosting the blocks.
	WorkloadDataLocality = "data-locality"
)

// SchedRow is one (workload, policy) cell of the comparison.
type SchedRow struct {
	Workload string
	Policy   string
	// Makespan is submission of the batch to the last unit's final state.
	Makespan time.Duration
	// UnitsHPC and UnitsYARN count where the units finished.
	UnitsHPC  int
	UnitsYARN int
}

// schedSpec is the comparison machine: five 8-core nodes behind a slow
// external uplink, so remote data fetches are painful and per-pilot core
// capacity is small enough for placement to matter.
func schedSpec() cluster.MachineSpec {
	spec := testbed("hetero", 5)
	spec.Node.DiskBW = 200e6
	spec.Lustre.AggregateBW, spec.Lustre.MDSServers = 2e9, 4
	spec.ExternalBW = 40e6 // slow campus uplink
	return spec
}

// schedProfile trims the generic agent bootstrap so runs stay quick, but
// keeps the Mode I Hadoop spawn at its calibrated tens of seconds — the
// readiness gap the burst workload probes.
func schedProfile() pilot.BootstrapProfile {
	prof := pilot.DefaultProfile()
	prof.AgentSetup = 2 * time.Second
	prof.AgentVenvOps = 50
	prof.AgentComponents = time.Second
	prof.UnitWrapperOps = 20
	prof.UnitWrapperSetup = 2 * time.Second
	prof.Jitter = 0
	return prof
}

const (
	schedDataFiles = 12
	schedDataBytes = 512 << 20
)

// RunSchedulerComparison runs both workloads under every built-in
// unit-scheduling policy and returns one row per (workload, policy).
func RunSchedulerComparison(seed int64) ([]*SchedRow, error) {
	policies := []string{
		pilot.SchedulerRoundRobin, pilot.SchedulerLeastLoaded,
		pilot.SchedulerBackfill, pilot.SchedulerLocality,
	}
	var rows []*SchedRow
	for _, wl := range []string{WorkloadBurst, WorkloadDataLocality} {
		for _, policy := range policies {
			row, err := runSchedCell(wl, policy, seed)
			if err != nil {
				return nil, fmt.Errorf("scheduler comparison %s/%s: %w", wl, policy, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runSchedCell executes one workload under one policy on a fresh
// environment.
func runSchedCell(wl, policy string, seed int64) (*SchedRow, error) {
	env, err := newEnv(schedSpec(), testbedBatch(seed), schedProfile(), false)
	if err != nil {
		return nil, err
	}
	env.Label = "sched/" + wl + "/" + policy
	defer env.Close()
	if err := env.addDedicatedHadoop(seed); err != nil {
		return nil, err
	}
	eng, session := env.Eng, env.Session

	row := &SchedRow{Workload: wl, Policy: policy}
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		hpcPl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "hetero", Nodes: 2, Runtime: 2 * time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			runErr = err
			return
		}
		yarnDesc := pilot.PilotDescription{
			Resource: "hetero", Nodes: 2, Runtime: 2 * time.Hour, Mode: pilot.ModeYARN,
		}
		if wl == WorkloadDataLocality {
			// Mode II: connect to the dedicated cluster that hosts the
			// input blocks; AM reuse keeps the per-unit overhead low.
			yarnDesc.ConnectDedicated = true
			yarnDesc.ReuseAM = true
		}
		yarnPl, err := pm.Submit(p, yarnDesc)
		if err != nil {
			runErr = err
			return
		}
		um, err := pilot.NewUnitManager(session, pilot.WithScheduler(policy))
		if err != nil {
			runErr = err
			return
		}
		um.AddPilot(hpcPl)
		um.AddPilot(yarnPl)
		if !hpcPl.WaitState(p, pilot.PilotActive) {
			runErr = fmt.Errorf("HPC pilot ended %v", hpcPl.State())
			return
		}

		var descs []pilot.ComputeUnitDescription
		switch wl {
		case WorkloadBurst:
			// Submit while the Mode I pilot is still spawning Hadoop.
			for i := 0; i < 32; i++ {
				descs = append(descs, pilot.ComputeUnitDescription{
					Name:  fmt.Sprintf("burst-%02d", i),
					Cores: 2,
					Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
						ctx.Node.Compute(bp, 8)
					},
				})
			}
		case WorkloadDataLocality:
			if !yarnPl.WaitState(p, pilot.PilotActive) {
				runErr = fmt.Errorf("YARN pilot ended %v", yarnPl.State())
				return
			}
			// The input partitions are Data-Units on an HDFS data pilot
			// over the portal's dedicated filesystem, attached to the
			// Mode II pilot — so the locality scheduler places by replica
			// bytes.
			dm := pilot.NewDataManager(session)
			portal, err := dm.AddPilot(pilot.DataPilotDescription{
				Backend: pilot.DataBackendHDFS, Label: "portal", HDFS: env.Res.DedicatedHDFS,
			})
			if err != nil {
				runErr = err
				return
			}
			if err := yarnPl.AttachDataPilot(portal); err != nil {
				runErr = err
				return
			}
			for i := 0; i < schedDataFiles; i++ {
				du, err := dm.Submit(p, pilot.DataUnitDescription{
					Name:      fmt.Sprintf("/data/part-%02d", i),
					SizeBytes: schedDataBytes,
					Affinity:  "portal",
				})
				if err != nil {
					runErr = err
					return
				}
				descs = append(descs, pilot.ComputeUnitDescription{
					Name:   fmt.Sprintf("data-%02d", i),
					Cores:  2,
					Inputs: []pilot.DataRef{{Unit: du}},
					Body:   schedDataBody(du),
				})
			}
			for i := 0; i < 20; i++ {
				descs = append(descs, pilot.ComputeUnitDescription{
					Name:  fmt.Sprintf("compute-%02d", i),
					Cores: 2,
					Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
						ctx.Node.Compute(bp, 8)
					},
				})
			}
		}

		start := p.Now()
		units, err := um.Submit(p, descs)
		if err != nil {
			runErr = err
			return
		}
		um.WaitAll(p, units)
		row.Makespan = p.Now() - start
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				runErr = fmt.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
				return
			}
			switch u.Pilot {
			case hpcPl:
				row.UnitsHPC++
			case yarnPl:
				row.UnitsYARN++
			}
		}
		hpcPl.Cancel()
		yarnPl.Cancel()
	})
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	return row, nil
}

// schedDataBody models where the unit's partition comes from: on the
// pilot whose attached data pilot holds a replica, the agent's stage-in
// already delivered it from node-local blocks; anywhere else the portal
// serves it over the machine's slow external link — the cost a
// locality-blind placement pays.
func schedDataBody(du *pilot.DataUnit) pilot.UnitBody {
	return func(bp *sim.Proc, ctx *pilot.UnitContext) {
		if dp := ctx.Unit.Pilot.DataPilot(); dp == nil || !du.ReplicaOn(dp) {
			ctx.Machine.DownloadExternal(bp, schedDataBytes)
		}
		ctx.Node.Compute(bp, 4)
	}
}

// WriteSchedulerComparison renders the comparison table.
func WriteSchedulerComparison(w io.Writer, rows []*SchedRow) {
	fmt.Fprintln(w, "Unit-scheduler comparison: heterogeneous two-pilot (HPC + YARN) workloads")
	t := metrics.NewTable("workload", "policy", "makespan (s)", "units on hpc", "units on yarn")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Policy, metrics.Seconds(r.Makespan),
			fmt.Sprintf("%d", r.UnitsHPC), fmt.Sprintf("%d", r.UnitsYARN))
	}
	t.Write(w)
}
