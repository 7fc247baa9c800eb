// Package sagahadoop implements SAGA-Hadoop (paper Section III-A): a
// light-weight tool that uses the SAGA job API to spawn and control
// Hadoop (YARN) or Spark clusters inside an allocation managed by an HPC
// scheduler, and to submit applications to them — Mode I without the
// Pilot machinery.
//
// Framework specifics are encapsulated in plugins ("adaptors"): the tool
// delegates download, configuration and daemon start to the selected
// plugin, so new frameworks (the paper mentions Flink) can be added by
// implementing Plugin.
package sagahadoop

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/sim"
	"repro/internal/spark"
	"repro/internal/yarn"
)

// Framework names a supported plugin.
type Framework string

// Supported frameworks.
const (
	FrameworkYARN  Framework = "yarn"
	FrameworkSpark Framework = "spark"
)

// ClusterEnv is what a plugin hands to applications once the cluster
// runs: exactly one of YARN (+HDFS) or Spark is set.
type ClusterEnv struct {
	Nodes []*cluster.Node
	YARN  *yarn.ResourceManager
	HDFS  *hdfs.FileSystem
	Spark *spark.Cluster
}

// Plugin encapsulates framework-specific bootstrap and teardown.
type Plugin interface {
	// Name returns the framework name.
	Name() Framework
	// Bootstrap downloads, configures and starts the framework on the
	// allocation, blocking p for the realistic durations.
	Bootstrap(p *sim.Proc, alloc *hpc.Allocation, rng *rand.Rand) (*ClusterEnv, error)
	// Shutdown stops the daemons.
	Shutdown(env *ClusterEnv)
}

// Config tunes SAGA-Hadoop.
type Config struct {
	// Framework selects the plugin (default YARN).
	Framework Framework
	// Nodes is the allocation size.
	Nodes int
	// WallTime is the cluster job's walltime.
	WallTime sim.Duration
	// DownloadBytes overrides the distribution size (0 = plugin
	// default).
	DownloadBytes int64
	Seed          int64
}

// State is the lifecycle state of a managed cluster.
type State string

// Cluster lifecycle states.
const (
	StatePending  State = "Pending"
	StateRunning  State = "Running"
	StateStopped  State = "Stopped"
	StateFailed   State = "Failed"
	StateStopping State = "Stopping"
)

// Handle is a running SAGA-Hadoop deployment.
type Handle struct {
	cfg    Config
	job    *saga.Job
	state  State
	env    *ClusterEnv
	ready  *sim.Event
	closed *sim.Event
	stop   *sim.Event
	err    error
}

// Start submits the cluster job through SAGA (step 1 of the paper's
// Figure 2) and returns a handle immediately; wait with WaitRunning.
func Start(p *sim.Proc, js *saga.JobService, cfg Config) (*Handle, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sagahadoop: need positive nodes, got %d", cfg.Nodes)
	}
	if cfg.Framework == "" {
		cfg.Framework = FrameworkYARN
	}
	if cfg.WallTime <= 0 {
		cfg.WallTime = 4 * time.Hour
	}
	var plugin Plugin
	switch cfg.Framework {
	case FrameworkYARN:
		plugin = &yarnPlugin{downloadBytes: cfg.DownloadBytes}
	case FrameworkSpark:
		plugin = &sparkPlugin{downloadBytes: cfg.DownloadBytes}
	default:
		return nil, fmt.Errorf("sagahadoop: no plugin for framework %q", cfg.Framework)
	}
	eng := p.Engine()
	h := &Handle{
		cfg:    cfg,
		state:  StatePending,
		ready:  sim.NewEvent(eng),
		closed: sim.NewEvent(eng),
		stop:   sim.NewEvent(eng),
	}
	rng := sim.SubRNG(cfg.Seed, "saga-hadoop")
	job, err := js.Submit(p, saga.JobDescription{
		Executable: "saga-hadoop-bootstrap",
		NumNodes:   cfg.Nodes,
		WallTime:   cfg.WallTime,
		Payload: func(jp *sim.Proc, alloc *hpc.Allocation) {
			env, err := plugin.Bootstrap(jp, alloc, rng)
			if err != nil {
				h.err = err
				h.state = StateFailed
				h.ready.Trigger()
				return
			}
			h.env = env
			h.state = StateRunning
			h.ready.Trigger()
			// Hold the allocation until Stop (step 4) or walltime.
			if intr := sim.OnInterrupt(func() { jp.Wait(h.stop) }); intr != nil {
				h.state = StateFailed // cancelled or walltime
			} else {
				h.state = StateStopped
			}
			plugin.Shutdown(env)
			h.closed.Trigger()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("sagahadoop: %w", err)
	}
	h.job = job
	return h, nil
}

// State returns the current lifecycle state (step 3: get status).
func (h *Handle) State() State { return h.state }

// WaitRunning blocks until the cluster is up (or failed), returning the
// environment.
func (h *Handle) WaitRunning(p *sim.Proc) (*ClusterEnv, error) {
	p.Wait(h.ready)
	if h.state != StateRunning {
		if h.err != nil {
			return nil, h.err
		}
		return nil, fmt.Errorf("sagahadoop: cluster is %s", h.state)
	}
	return h.env, nil
}

// Stop shuts the cluster down and releases the allocation (step 4).
func (h *Handle) Stop(p *sim.Proc) {
	if h.state != StateRunning {
		return
	}
	h.state = StateStopping
	h.stop.Trigger()
	p.Wait(h.closed)
}
