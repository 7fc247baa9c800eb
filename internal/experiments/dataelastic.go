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

// The data-elastic comparison pits two autoscale policies against each
// other on a data-skewed workload: every input partition lives behind
// one pilot's attached store, so growing the other pilot buys nothing.
// Both pilots run their own autoscaler under the compared policy and
// race for the same free nodes; the data-blind queue-depth policy grows
// both on the shared backlog signal, while data-aware reads the
// ClusterView and routes all growth to the pilot that holds the bytes.
const (
	// DataElasticQueueDepth drives both pilots with the queue-depth
	// policy — the data-blind baseline.
	DataElasticQueueDepth = pilot.AutoscaleQueueDepth
	// DataElasticDataAware drives both pilots with the data-aware
	// policy: only the store-holding pilot grows.
	DataElasticDataAware = pilot.AutoscaleDataAware
)

// DataElasticRow is one policy cell of the comparison.
type DataElasticRow struct {
	// Policy is the autoscale policy both pilots ran under.
	Policy string
	// Makespan is compute submission to the last unit's final state.
	Makespan time.Duration
	// PeakHot/PeakCold are the largest capacities the data-holding and
	// the data-free pilot reached; Resizes counts applied resizes on
	// both.
	PeakHot, PeakCold int
	Resizes           int
	// NodeSeconds integrates both pilots' capacity over the workload —
	// the budget actually consumed.
	NodeSeconds float64
	// LocalInputs counts unit executions whose partition was held by
	// their pilot's attached store; RemoteInputs the rest.
	LocalInputs, RemoteInputs int
}

// dataElasticSpec is the elastic comparison machine: twelve 8-core
// nodes, so two 2-node pilots leave an eight-node free pool too small
// for both autoscalers to max out — the contention the policies resolve
// differently.
func dataElasticSpec() cluster.MachineSpec {
	spec := elasticSpec()
	spec.Name = "dataelastic"
	return spec
}

const (
	dataElasticBaseNodes = 2
	dataElasticMaxNodes  = 10
	dataElasticParts     = 8
	dataElasticPartBytes = 256 << 20
	dataElasticUnits     = 96
	dataElasticUnitCores = 2
	dataElasticUnitWork  = 30 // abstract compute-seconds per unit
)

// RunDataElasticComparison runs the skewed workload under both policies:
// same machine, same pilots, same data layout, same seed per cell. Only
// the autoscale policy differs.
func RunDataElasticComparison(seed int64) ([]*DataElasticRow, error) {
	var rows []*DataElasticRow
	for _, policy := range []string{DataElasticQueueDepth, DataElasticDataAware} {
		row, err := runDataElasticCell(policy, seed)
		if err != nil {
			return nil, fmt.Errorf("data-elastic comparison %s: %w", policy, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// dataElasticPolicy builds one cell's policy instance, tuned for the
// burst the same way the elastic comparison tunes its cells (the
// zero-value defaults are deliberately conservative). Each autoscaler
// gets its own instance.
func dataElasticPolicy(name string) pilot.AutoscalePolicy {
	switch name {
	case DataElasticQueueDepth:
		return &pilot.QueueDepthPolicy{Threshold: 0.5, GrowStep: 2}
	case DataElasticDataAware:
		return &pilot.DataAwarePolicy{Threshold: 0.5, GrowStep: 2}
	}
	return nil
}

// runDataElasticCell executes the workload on a fresh environment with
// both pilots autoscaled under the named policy.
func runDataElasticCell(policy string, seed int64) (*DataElasticRow, error) {
	env, err := newEnv(dataElasticSpec(), testbedBatch(seed), schedProfile(), false)
	if err != nil {
		return nil, err
	}
	env.Label = "dataelastic/" + policy
	defer env.Close()
	eng, session := env.Eng, env.Session

	row := &DataElasticRow{Policy: policy}
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		var pilots []*pilot.Pilot
		for i := 0; i < 2; i++ {
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: "dataelastic", Nodes: dataElasticBaseNodes,
				Runtime: 2 * time.Hour, Mode: pilot.ModeHPC,
			})
			if err != nil {
				runErr = err
				return
			}
			pilots = append(pilots, pl)
		}

		// Locality places compute strictly where the bytes live, so the
		// autoscalers' capacity decisions are what govern throughput.
		um, err := pilot.NewUnitManager(session, pilot.WithScheduler(pilot.SchedulerLocality))
		if err != nil {
			runErr = err
			return
		}
		for _, pl := range pilots {
			if err := um.AddPilot(pl); err != nil {
				runErr = err
				return
			}
		}

		// Per-pilot in-memory stores; every partition is pinned to the
		// hot pilot's store — the data skew.
		dm := pilot.NewDataManager(session)
		for i, pl := range pilots {
			dp, err := dm.AddPilot(pilot.DataPilotDescription{
				Backend: pilot.DataBackendMem, Label: fmt.Sprintf("mem-%d", i),
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
		}
		parts := make([]*pilot.DataUnit, dataElasticParts)
		for i := range parts {
			du, err := dm.Submit(p, pilot.DataUnitDescription{
				Name:      fmt.Sprintf("/skew/part-%02d", i),
				SizeBytes: dataElasticPartBytes,
				Affinity:  "mem-0",
			})
			if err != nil {
				runErr = err
				return
			}
			parts[i] = du
		}

		var scalers []*pilot.Autoscaler
		for _, pl := range pilots {
			as, err := pilot.NewAutoscaler(um, pl,
				pilot.WithAutoscalePolicy(dataElasticPolicy(policy)),
				pilot.WithAutoscaleBounds(dataElasticBaseNodes, dataElasticMaxNodes),
				pilot.WithAutoscaleInterval(5*time.Second),
			)
			if err != nil {
				runErr = err
				return
			}
			scalers = append(scalers, as)
		}
		for _, pl := range pilots {
			if !pl.WaitState(p, pilot.PilotActive) {
				runErr = fmt.Errorf("pilot %s ended %v", pl.ID, pl.State())
				return
			}
		}
		activeAt := p.Now()

		descs := make([]pilot.ComputeUnitDescription, dataElasticUnits)
		for i := range descs {
			descs[i] = pilot.ComputeUnitDescription{
				Name:   fmt.Sprintf("skew-%02d", i),
				Cores:  dataElasticUnitCores,
				Inputs: []pilot.DataRef{{Unit: parts[i%dataElasticParts]}},
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					ctx.Node.Compute(bp, dataElasticUnitWork)
				},
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
		for i, u := range units {
			if u.State() != pilot.UnitDone {
				runErr = fmt.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
				return
			}
			if dp := u.Pilot.DataPilot(); dp != nil && parts[i%dataElasticParts].ReplicaOn(dp) {
				row.LocalInputs++
			} else {
				row.RemoteInputs++
			}
		}
		for i, as := range scalers {
			history := as.History()
			as.Stop()
			peak, resizes, nodeSeconds :=
				integrateCapacity(dataElasticBaseNodes, history, activeAt, p.Now())
			if i == 0 {
				row.PeakHot = peak
			} else {
				row.PeakCold = peak
			}
			row.Resizes += resizes
			row.NodeSeconds += nodeSeconds
		}
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

// WriteDataElasticComparison renders the comparison table.
func WriteDataElasticComparison(w io.Writer, rows []*DataElasticRow) {
	fmt.Fprintln(w, "Data-aware autoscaling comparison: data-skewed workload over two elastic pilots")
	fmt.Fprintf(w, "(%d partitions x %d MB all behind pilot 1's store; %d units; base %d nodes, bounds [%d, %d])\n",
		dataElasticParts, dataElasticPartBytes>>20, dataElasticUnits,
		dataElasticBaseNodes, dataElasticBaseNodes, dataElasticMaxNodes)
	t := metrics.NewTable("policy", "makespan (s)", "peak hot", "peak cold",
		"resizes", "node-seconds", "local inputs", "remote inputs")
	for _, r := range rows {
		t.AddRow(r.Policy, metrics.Seconds(r.Makespan),
			fmt.Sprintf("%d", r.PeakHot), fmt.Sprintf("%d", r.PeakCold),
			fmt.Sprintf("%d", r.Resizes), fmt.Sprintf("%.0f", r.NodeSeconds),
			fmt.Sprintf("%d", r.LocalInputs), fmt.Sprintf("%d", r.RemoteInputs))
	}
	t.Write(w)
}
