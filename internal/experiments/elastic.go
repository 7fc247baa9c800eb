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

// The elastic-comparison cells: one static pilot (the v2 behaviour,
// capacity fixed at Submit) against the same base pilot driven by each
// built-in autoscale policy.
const (
	// ElasticStatic is the baseline: no autoscaler, the pilot keeps its
	// base allocation for the whole run.
	ElasticStatic = "static"
)

// ElasticRow is one policy cell of the comparison.
type ElasticRow struct {
	// Policy is ElasticStatic or a registered autoscale-policy name.
	Policy string
	// Makespan is first submission to the last unit's final state.
	Makespan time.Duration
	// PeakNodes is the largest capacity the pilot reached; Resizes
	// counts applied grows and shrinks.
	PeakNodes int
	Resizes   int
	// NodeSeconds integrates capacity over the workload (node·s): the
	// budget actually consumed, so elastic and static runs compare on
	// cost as well as speed.
	NodeSeconds float64
	// UnitTTC samples every unit's time-to-completion (submission to
	// final state); the report table prints its P50/P95.
	UnitTTC metrics.Sample
}

// elasticSpec is the comparison machine: twelve 8-core nodes, so a
// 2-node pilot has headroom to grow into.
func elasticSpec() cluster.MachineSpec {
	spec := testbed("elastic", 12)
	spec.Node.DiskBW = 200e6
	spec.Lustre.AggregateBW, spec.Lustre.MDSServers = 2e9, 4
	spec.ExternalBW = 250e6
	return spec
}

const (
	elasticBaseNodes = 2
	elasticMaxNodes  = 8
	// The bursty workload: a steady trickle, then a burst arriving
	// elasticBurstDelay later.
	elasticTrickleUnits = 6
	elasticBurstUnits   = 48
	elasticBurstDelay   = 30 * time.Second
	elasticUnitCores    = 2
	elasticUnitWork     = 30 // abstract compute-seconds per unit
)

// elasticPolicies returns the autoscaled cells: each built-in policy,
// tuned for the burst (the zero-value defaults are deliberately
// conservative).
func elasticPolicies() map[string]pilot.AutoscalePolicy {
	return map[string]pilot.AutoscalePolicy{
		pilot.AutoscaleQueueDepth: &pilot.QueueDepthPolicy{
			Threshold: 0.5, GrowStep: 2,
		},
		pilot.AutoscaleUtilization: &pilot.UtilizationPolicy{
			HighWater: 0.20, LowWater: 0.05, GrowStep: 2, Cooldown: 15 * time.Second,
		},
		pilot.AutoscaleDeadline: &pilot.DeadlinePolicy{
			Deadline:     3 * time.Minute,
			UnitDuration: 45 * time.Second,
		},
	}
}

// RunElasticComparison reproduces the paper's cluster-extension
// scenario: a Mode I YARN pilot serving a bursty workload, static
// versus autoscaled under every built-in policy. Same machine, same
// base allocation, same workload, same seed per cell.
func RunElasticComparison(seed int64) ([]*ElasticRow, error) {
	cells := []string{ElasticStatic, pilot.AutoscaleQueueDepth, pilot.AutoscaleUtilization, pilot.AutoscaleDeadline}
	policies := elasticPolicies()
	var rows []*ElasticRow
	for _, cell := range cells {
		row, err := runElasticCell(cell, policies[cell], seed)
		if err != nil {
			return nil, fmt.Errorf("elastic comparison %s: %w", cell, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runElasticCell executes the bursty workload on a fresh environment.
// policy is nil for the static baseline.
func runElasticCell(name string, policy pilot.AutoscalePolicy, seed int64) (*ElasticRow, error) {
	env, err := newEnv(elasticSpec(), testbedBatch(seed), schedProfile(), false)
	if err != nil {
		return nil, err
	}
	env.Label = "elastic/" + name
	defer env.Close()
	eng, session := env.Eng, env.Session

	row := &ElasticRow{Policy: name}
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "elastic", Nodes: elasticBaseNodes, Runtime: 2 * time.Hour,
			Mode: pilot.ModeYARN,
		})
		if err != nil {
			runErr = err
			return
		}
		um, err := pilot.NewUnitManager(session, pilot.WithScheduler(pilot.SchedulerBackfill))
		if err != nil {
			runErr = err
			return
		}
		if err := um.AddPilot(pl); err != nil {
			runErr = err
			return
		}
		var as *pilot.Autoscaler
		if policy != nil {
			as, err = pilot.NewAutoscaler(um, pl,
				pilot.WithAutoscalePolicy(policy),
				pilot.WithAutoscaleBounds(elasticBaseNodes, elasticMaxNodes),
				pilot.WithAutoscaleInterval(5*time.Second),
			)
			if err != nil {
				runErr = err
				return
			}
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			runErr = fmt.Errorf("pilot ended %v", pl.State())
			return
		}
		activeAt := p.Now()

		unitDesc := func(name string) pilot.ComputeUnitDescription {
			return pilot.ComputeUnitDescription{
				Name:  name,
				Cores: elasticUnitCores,
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					ctx.Node.Compute(bp, elasticUnitWork)
				},
			}
		}
		var trickle []pilot.ComputeUnitDescription
		for i := 0; i < elasticTrickleUnits; i++ {
			trickle = append(trickle, unitDesc(fmt.Sprintf("trickle-%02d", i)))
		}
		start := p.Now()
		units, err := um.Submit(p, trickle)
		if err != nil {
			runErr = err
			return
		}
		p.Sleep(elasticBurstDelay)
		var burst []pilot.ComputeUnitDescription
		for i := 0; i < elasticBurstUnits; i++ {
			burst = append(burst, unitDesc(fmt.Sprintf("burst-%02d", i)))
		}
		burstUnits, err := um.Submit(p, burst)
		if err != nil {
			runErr = err
			return
		}
		units = append(units, burstUnits...)
		um.WaitAll(p, units)
		row.Makespan = p.Now() - start
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				runErr = fmt.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
				return
			}
			row.UnitTTC.Add(u.TimeToCompletion())
		}
		// Budget and peak: integrate capacity over [pilot active, all
		// units done] from the resize history.
		var history []pilot.ResizeRecord
		if as != nil {
			history = as.History()
			as.Stop()
		}
		row.PeakNodes, row.Resizes, row.NodeSeconds =
			integrateCapacity(elasticBaseNodes, history, activeAt, p.Now())
		pl.Cancel()
	})
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	return row, nil
}

// integrateCapacity folds a resize history into peak nodes and node·s
// consumed between from and to.
func integrateCapacity(base int, history []pilot.ResizeRecord, from, to time.Duration) (peak, resizes int, nodeSeconds float64) {
	peak = base
	nodes := base
	last := from
	for _, r := range history {
		if r.At < from || r.At > to {
			continue
		}
		nodeSeconds += float64(nodes) * (r.At - last).Seconds()
		nodes = r.To
		last = r.At
		resizes++
		if r.To > peak {
			peak = r.To
		}
	}
	nodeSeconds += float64(nodes) * (to - last).Seconds()
	return peak, resizes, nodeSeconds
}

// WriteElasticComparison renders the comparison table.
func WriteElasticComparison(w io.Writer, rows []*ElasticRow) {
	fmt.Fprintln(w, "Elastic-pilot comparison: bursty workload on a Mode I YARN pilot")
	fmt.Fprintf(w, "(base %d nodes, autoscalers bounded to [%d, %d]; %d+%d units)\n",
		elasticBaseNodes, elasticBaseNodes, elasticMaxNodes, elasticTrickleUnits, elasticBurstUnits)
	t := metrics.NewTable("policy", "makespan (s)", "peak nodes", "resizes",
		"node-seconds", "unit ttc p50 (s)", "unit ttc p95 (s)")
	for _, r := range rows {
		t.AddRow(r.Policy, metrics.Seconds(r.Makespan),
			fmt.Sprintf("%d", r.PeakNodes), fmt.Sprintf("%d", r.Resizes),
			fmt.Sprintf("%.0f", r.NodeSeconds),
			metrics.Seconds(r.UnitTTC.P50()), metrics.Seconds(r.UnitTTC.P95()))
	}
	t.Write(w)
}
