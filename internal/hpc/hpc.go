// Package hpc implements the system-level resource manager of an HPC
// machine: a space-shared batch scheduler allocating whole nodes to jobs
// from a FIFO queue with EASY backfilling, walltime enforcement, and the
// submission semantics of SLURM/Torque/SGE front-ends. It plays the role
// that SLURM plays for Stampede in the paper: the thing the Pilot-Manager
// submits placeholder jobs to through SAGA.
package hpc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// JobState is the lifecycle state of a batch job.
type JobState int

const (
	// StatePending means queued, waiting for nodes.
	StatePending JobState = iota
	// StateRunning means nodes are allocated and the payload runs.
	StateRunning
	// StateCompleted means the payload returned normally.
	StateCompleted
	// StateCancelled means the job was cancelled by the user.
	StateCancelled
	// StateTimedOut means the walltime limit killed the job.
	StateTimedOut
)

// String returns the SLURM-style name of the state.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateCompleted:
		return "COMPLETED"
	case StateCancelled:
		return "CANCELLED"
	case StateTimedOut:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// ErrWalltime is the interrupt reason delivered to payloads killed at
// their walltime limit.
var ErrWalltime = errors.New("hpc: walltime limit exceeded")

// ErrCancelled is the interrupt reason delivered to payloads of cancelled
// jobs.
var ErrCancelled = errors.New("hpc: job cancelled")

// Payload is the body of a job. It runs as a simulation process on the
// allocation after the prolog completes. If the job is cancelled or
// exceeds its walltime, the payload is interrupted (see sim.Interrupted).
type Payload func(p *sim.Proc, alloc *Allocation)

// JobSpec describes a batch submission.
type JobSpec struct {
	Name     string
	Nodes    int
	WallTime sim.Duration
	Queue    string // informational (e.g. "normal", "development", "hadoop")
	Run      Payload
}

// Allocation is the set of nodes granted to a running job.
type Allocation struct {
	Job   *Job
	Nodes []*cluster.Node
	// Deadline is the virtual time at which the walltime limit expires.
	Deadline sim.Duration
}

// Head returns the first allocated node, where HPC launchers
// conventionally run the job script (and where the Pilot-Agent runs).
func (a *Allocation) Head() *cluster.Node { return a.Nodes[0] }

// Machine returns the machine the allocation lives on.
func (a *Allocation) Machine() *cluster.Machine { return a.Nodes[0].Machine() }

// Job is a submitted batch job.
type Job struct {
	ID   int
	Spec JobSpec

	state      JobState
	SubmitTime sim.Duration
	StartTime  sim.Duration
	EndTime    sim.Duration

	// Started triggers when nodes are allocated; Done triggers on any
	// terminal state.
	Started *sim.Event
	Done    *sim.Event

	alloc *Allocation
	proc  *sim.Proc
}

// State returns the current job state.
func (j *Job) State() JobState { return j.state }

// QueueWait returns how long the job waited in the queue (only meaningful
// once started).
func (j *Job) QueueWait() sim.Duration { return j.StartTime - j.SubmitTime }

// Config tunes the batch system.
type Config struct {
	// SchedCycle is the interval of the periodic scheduling pass. Passes
	// also run immediately on submission and job completion (as in
	// SLURM's default configuration).
	SchedCycle sim.Duration
	// Prolog is the mean node-setup time (prolog scripts, launcher
	// startup) before the payload runs; jittered per job.
	Prolog sim.Duration
	// PrologJitter is the relative jitter applied to Prolog.
	PrologJitter float64
	// MinQueueWait models the dispatch floor of a production scheduler
	// (accounting, license checks, RPC round trips): even on an idle
	// machine a job waits at least this long, jittered.
	MinQueueWait sim.Duration
	// DefaultWallTime applies when a JobSpec has none.
	DefaultWallTime sim.Duration
	// Seed drives the jitter RNG.
	Seed int64
}

// DefaultConfig returns production-like defaults.
func DefaultConfig() Config {
	return Config{
		SchedCycle:      30 * time.Second,
		Prolog:          8 * time.Second,
		PrologJitter:    0.25,
		MinQueueWait:    5 * time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            1,
	}
}

// Batch is the machine-wide batch scheduler.
type Batch struct {
	eng     *sim.Engine
	machine *cluster.Machine
	cfg     Config
	rng     *rand.Rand

	free    []*cluster.Node // sorted by ID
	pending []*Job
	running map[int]*Job
	nextID  int

	// completed counts terminal jobs, for stats.
	completed int
}

// NewBatch creates a batch scheduler owning all nodes of m and starts its
// periodic scheduling pass.
func NewBatch(m *cluster.Machine, cfg Config) *Batch {
	if cfg.SchedCycle <= 0 {
		cfg.SchedCycle = 30 * time.Second
	}
	if cfg.DefaultWallTime <= 0 {
		cfg.DefaultWallTime = 4 * time.Hour
	}
	b := &Batch{
		eng:     m.Engine,
		machine: m,
		cfg:     cfg,
		rng:     sim.SubRNG(cfg.Seed, "hpc:"+m.Spec.Name),
		free:    append([]*cluster.Node(nil), m.Nodes...),
		running: make(map[int]*Job),
	}
	b.eng.SpawnDaemon("batch:"+m.Spec.Name, func(p *sim.Proc) {
		for {
			p.Sleep(b.cfg.SchedCycle)
			b.schedule()
		}
	})
	return b
}

// Machine returns the machine this scheduler manages.
func (b *Batch) Machine() *cluster.Machine { return b.machine }

// Submit enqueues a job and triggers a scheduling pass after the
// configured dispatch floor. It returns an error for unsatisfiable
// requests (more nodes than the machine has).
func (b *Batch) Submit(spec JobSpec) (*Job, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("hpc: job %q requests %d nodes", spec.Name, spec.Nodes)
	}
	if spec.Nodes > len(b.machine.Nodes) {
		return nil, fmt.Errorf("hpc: job %q requests %d nodes but machine %s has %d",
			spec.Name, spec.Nodes, b.machine.Spec.Name, len(b.machine.Nodes))
	}
	if spec.Run == nil {
		return nil, fmt.Errorf("hpc: job %q has no payload", spec.Name)
	}
	if spec.WallTime <= 0 {
		spec.WallTime = b.cfg.DefaultWallTime
	}
	b.nextID++
	j := &Job{
		ID:         b.nextID,
		Spec:       spec,
		SubmitTime: b.eng.Now(),
		Started:    sim.NewEvent(b.eng),
		Done:       sim.NewEvent(b.eng),
	}
	b.pending = append(b.pending, j)
	b.eng.Tracef("hpc %s: submitted job %d (%s) nodes=%d wall=%s",
		b.machine.Spec.Name, j.ID, spec.Name, spec.Nodes, spec.WallTime)
	delay := sim.Jitter(b.rng, b.cfg.MinQueueWait, 0.5)
	b.eng.At(delay, b.schedule)
	return j, nil
}

// Cancel terminates a job. Pending jobs leave the queue; running jobs
// have their payload interrupted and nodes reclaimed.
func (b *Batch) Cancel(j *Job) {
	switch j.state {
	case StatePending:
		for i, q := range b.pending {
			if q == j {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				break
			}
		}
		b.terminate(j, StateCancelled)
	case StateRunning:
		j.proc.Interrupt(ErrCancelled)
		// finish() runs when the payload unwinds; it marks Completed,
		// so record the intent first.
		j.state = StateCancelled
	}
}

// QueueLength returns the number of pending jobs.
func (b *Batch) QueueLength() int { return len(b.pending) }

// RunningJobs returns the number of running jobs.
func (b *Batch) RunningJobs() int { return len(b.running) }

// FreeNodes returns the number of unallocated nodes.
func (b *Batch) FreeNodes() int { return len(b.free) }

// schedule is one scheduling pass: FIFO start plus EASY backfill. Runs in
// kernel context.
func (b *Batch) schedule() {
	// Start jobs from the head of the queue while they fit.
	for len(b.pending) > 0 && b.pending[0].Spec.Nodes <= len(b.free) {
		j := b.pending[0]
		b.pending = b.pending[1:]
		b.start(j)
	}
	if len(b.pending) == 0 {
		return
	}
	// EASY backfill: compute when the head job will be able to start
	// (shadow time) given running jobs' walltime limits, and how many
	// nodes will be spare at that moment. A later job may jump the queue
	// if it fits now and either finishes before the shadow time or fits
	// within the spare nodes.
	head := b.pending[0]
	shadow, spare := b.reservation(head)
	i := 1
	for i < len(b.pending) {
		j := b.pending[i]
		fitsNow := j.Spec.Nodes <= len(b.free)
		endsBeforeShadow := b.eng.Now()+j.Spec.WallTime <= shadow
		fitsSpare := j.Spec.Nodes <= spare
		if fitsNow && (endsBeforeShadow || fitsSpare) {
			if fitsSpare && !endsBeforeShadow {
				spare -= j.Spec.Nodes
			}
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			b.start(j)
			continue
		}
		i++
	}
}

// reservation computes the EASY-backfill shadow time for the head job:
// the earliest instant enough nodes are free assuming running jobs end at
// their walltime limits, plus the number of nodes free beyond the head
// job's need at that instant.
func (b *Batch) reservation(head *Job) (shadow sim.Duration, spare int) {
	type release struct {
		at    sim.Duration
		nodes int
	}
	var rels []release
	for _, j := range b.running {
		rels = append(rels, release{j.StartTime + j.Spec.WallTime, j.Spec.Nodes})
	}
	sort.Slice(rels, func(i, k int) bool {
		if rels[i].at != rels[k].at {
			return rels[i].at < rels[k].at
		}
		return rels[i].nodes < rels[k].nodes
	})
	avail := len(b.free)
	for _, r := range rels {
		if avail >= head.Spec.Nodes {
			break
		}
		avail += r.nodes
		shadow = r.at
	}
	if avail < head.Spec.Nodes {
		// Even with everything released the job cannot start — callers
		// validated size, so this cannot happen; guard anyway.
		return b.eng.Now() + b.cfg.DefaultWallTime, 0
	}
	return shadow, avail - head.Spec.Nodes
}

// start allocates nodes and launches the payload. Kernel context.
// jobName names a job's payload process ("job:<ID>:<name>") only when
// the name is read.
type jobName Job

func (n *jobName) String() string { return "job:" + strconv.Itoa(n.ID) + ":" + n.Spec.Name }

func (b *Batch) start(j *Job) {
	nodes := b.free[:j.Spec.Nodes]
	b.free = append([]*cluster.Node(nil), b.free[j.Spec.Nodes:]...)
	j.alloc = &Allocation{Job: j, Nodes: append([]*cluster.Node(nil), nodes...)}
	j.state = StateRunning
	j.StartTime = b.eng.Now()
	j.alloc.Deadline = j.StartTime + j.Spec.WallTime
	b.running[j.ID] = j
	j.Started.Trigger()
	b.eng.Tracef("hpc %s: job %d starting on %d nodes after %s queued",
		b.machine.Spec.Name, j.ID, len(j.alloc.Nodes), j.QueueWait())

	prolog := sim.Jitter(b.rng, b.cfg.Prolog, b.cfg.PrologJitter)
	j.proc = b.eng.SpawnNamed((*jobName)(j), func(p *sim.Proc) {
		defer b.finish(j)
		p.Sleep(prolog)
		j.Spec.Run(p, j.alloc)
	})
	// Walltime enforcement. Scheduled as a daemon callback: it must not
	// keep the simulation alive once the payload has finished.
	b.eng.AtDaemon(j.Spec.WallTime, func() {
		if j.state == StateRunning {
			j.state = StateTimedOut
			j.proc.Interrupt(ErrWalltime)
		}
	})
}

// finish releases nodes and moves the job to a terminal state. Runs when
// the payload returns or unwinds.
func (b *Batch) finish(j *Job) {
	delete(b.running, j.ID)
	// Return nodes in ID order for determinism.
	b.free = append(b.free, j.alloc.Nodes...)
	sort.Slice(b.free, func(i, k int) bool { return b.free[i].ID < b.free[k].ID })
	state := StateCompleted
	if j.state == StateCancelled || j.state == StateTimedOut {
		state = j.state
	}
	b.terminate(j, state)
	b.schedule()
}

func (b *Batch) terminate(j *Job, s JobState) {
	j.state = s
	j.EndTime = b.eng.Now()
	j.Done.Trigger()
	b.completed++
	b.eng.Tracef("hpc %s: job %d -> %s", b.machine.Spec.Name, j.ID, s)
}

// CompletedJobs returns the number of jobs that reached a terminal state.
func (b *Batch) CompletedJobs() int { return b.completed }
