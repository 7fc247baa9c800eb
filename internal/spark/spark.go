// Package spark models a standalone Spark cluster — the deployment mode
// the paper chose for RADICAL-Pilot's Spark integration ("we decided to
// support Spark via the standalone deployment mode"): a Master process,
// one Worker per node, and per-application executors holding core slots.
// RADICAL-Pilot's Spark backend runs each Compute-Unit as one task on
// those slots.
package spark

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Config tunes the cluster.
type Config struct {
	// CoresPerExecutor sets executor granularity; 0 means one executor
	// spanning each worker's full core count.
	CoresPerExecutor int
	// ExecutorMemoryMB is the memory reserved per executor (informational
	// in the standalone accounting).
	ExecutorMemoryMB int64
	// TaskLaunch is the per-task dispatch overhead (scheduler delay +
	// deserialization).
	TaskLaunch sim.Duration
	// ExecutorStart is the executor JVM start time at application start.
	ExecutorStart sim.Duration
	// Seed drives jitter.
	Seed int64
}

// DefaultConfig mirrors a tuned standalone deployment.
func DefaultConfig() Config {
	return Config{
		ExecutorMemoryMB: 4096,
		TaskLaunch:       30 * time.Millisecond,
		ExecutorStart:    2 * time.Second,
		Seed:             1,
	}
}

// Cluster is a running standalone Spark master with registered workers.
type Cluster struct {
	eng     *sim.Engine
	cfg     Config
	nodes   []*cluster.Node
	rng     *rand.Rand
	nextApp int
	stopped bool
}

// NewCluster starts a standalone cluster over the given nodes. The first
// node hosts the Master (and also a Worker, as in the paper's LRM
// deployment).
func NewCluster(e *sim.Engine, cfg Config, nodes []*cluster.Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("spark: need at least one node")
	}
	if cfg.TaskLaunch <= 0 {
		cfg.TaskLaunch = 30 * time.Millisecond
	}
	if cfg.ExecutorStart <= 0 {
		cfg.ExecutorStart = 2 * time.Second
	}
	return &Cluster{
		eng:   e,
		cfg:   cfg,
		nodes: nodes,
		rng:   sim.SubRNG(cfg.Seed, "spark"),
	}, nil
}

// Stop marks the cluster stopped (sbin/stop-all.sh): new applications are
// rejected; running ones finish.
func (c *Cluster) Stop() { c.stopped = true }

// TotalCores returns the cluster-wide core count.
func (c *Cluster) TotalCores() int {
	n := 0
	for _, nd := range c.nodes {
		n += nd.Spec.Cores
	}
	return n
}

// Executor is a slot-holding executor bound to one node.
type Executor struct {
	Node  *cluster.Node
	Cores int
	// busy tracks in-use cores.
	busy int
}

// App is a running Spark application with its executors.
type App struct {
	ID      int
	Name    string
	cluster *Cluster
	execs   []*Executor
	// slots serializes task admission across all executor cores.
	slots *sim.Resource
	// byCore maps admission order to executors deterministically.
	done bool

	TasksRun int
}

// StartApp launches an application: executors start on every worker
// (blocking p for the slowest executor start).
func (c *Cluster) StartApp(p *sim.Proc, name string) (*App, error) {
	if c.stopped {
		return nil, fmt.Errorf("spark: cluster stopped")
	}
	c.nextApp++
	app := &App{ID: c.nextApp, Name: name, cluster: c}
	total := 0
	for _, nd := range c.nodes {
		per := c.cfg.CoresPerExecutor
		if per <= 0 || per > nd.Spec.Cores {
			per = nd.Spec.Cores
		}
		for got := 0; got+per <= nd.Spec.Cores; got += per {
			app.execs = append(app.execs, &Executor{Node: nd, Cores: per})
			total += per
		}
	}
	app.slots = sim.NewResource(c.eng, total)
	p.Sleep(sim.Jitter(c.rng, c.cfg.ExecutorStart, 0.2))
	return app, nil
}

// TotalSlots returns the number of concurrently runnable single-core
// tasks.
func (a *App) TotalSlots() int { return a.slots.Capacity() }

// FreeSlots returns currently idle core slots.
func (a *App) FreeSlots() int { return a.slots.Available() }

// TaskBody is user code running inside an executor slot on a node.
type TaskBody func(p *sim.Proc, node *cluster.Node)

// RunTask acquires cores on an executor, pays the dispatch overhead, and
// runs body; it blocks p until the task finishes. Executor choice is the
// first with enough idle cores (round-robin-ish by executor order, which
// matches standalone spreading with spreadOut=true).
func (a *App) RunTask(p *sim.Proc, cores int, body TaskBody) error {
	if a.done {
		return fmt.Errorf("spark: app %s already stopped", a.Name)
	}
	if cores <= 0 {
		return fmt.Errorf("spark: task cores must be positive, got %d", cores)
	}
	a.slots.Acquire(p, cores)
	ex := a.pickExecutor(cores)
	if ex == nil {
		// Aggregate slots were free but fragmented across executors.
		// Fall back to the least busy executor (oversubscribing it),
		// as standalone Spark cannot split a task across executors.
		ex = a.leastBusy()
	}
	ex.busy += cores
	defer func() {
		ex.busy -= cores
		a.slots.Release(cores)
		a.TasksRun++
	}()
	p.Sleep(sim.Jitter(a.cluster.rng, a.cluster.cfg.TaskLaunch, 0.3))
	body(p, ex.Node)
	return nil
}

func (a *App) pickExecutor(cores int) *Executor {
	for _, ex := range a.execs {
		if ex.Cores-ex.busy >= cores {
			return ex
		}
	}
	return nil
}

func (a *App) leastBusy() *Executor {
	best := a.execs[0]
	for _, ex := range a.execs[1:] {
		if ex.busy < best.busy {
			best = ex
		}
	}
	return best
}

// Stop releases the application's executors.
func (a *App) Stop() { a.done = true }
