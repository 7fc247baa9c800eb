// Package saga implements a SAGA-like standardized access layer to
// heterogeneous resource managers (cf. Merzky et al., "SAGA: A
// standardized access layer", SoftwareX 2015). RADICAL-Pilot and
// SAGA-Hadoop use this interface to submit and control jobs without
// knowing whether the backend is SLURM, Torque, SGE, or a local fork —
// exactly the role SAGA plays in the paper's architecture (Figure 3,
// steps P.1–P.2).
//
// Backends are selected by URL, e.g. "slurm://stampede", "sge://wrangler"
// or "fork://localhost". All three batch adaptors map onto the same
// underlying hpc.Batch (as real SAGA adaptors map onto the site's
// scheduler); they differ in the submission round-trip cost and in the
// states they report, which is faithful to how the adaptors behave.
package saga

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hpc"
	"repro/internal/sim"
)

// State is a SAGA job state.
type State string

// SAGA job model states.
const (
	New      State = "New"
	Pending  State = "Pending"
	Running  State = "Running"
	Done     State = "Done"
	Failed   State = "Failed"
	Canceled State = "Canceled"
)

// JobDescription mirrors the SAGA job description attributes used by
// RADICAL-Pilot: an executable plus resource requirements. The simulated
// executable body is supplied as Payload.
type JobDescription struct {
	Executable string
	Arguments  []string
	// NumNodes is the node count for batch backends (SPMD variation and
	// process counts are folded into the payload in this model).
	NumNodes int
	WallTime sim.Duration
	Queue    string
	// Project is the allocation charged, informational.
	Project string
	// Payload is the simulated body of the executable.
	Payload hpc.Payload
}

// Job is a SAGA job handle.
type Job struct {
	ID          string
	Description JobDescription

	backend *hpc.Job
	service *JobService
}

// State maps the backend state onto the SAGA state model.
func (j *Job) State() State {
	if j.backend == nil {
		return New
	}
	switch j.backend.State() {
	case hpc.StatePending:
		return Pending
	case hpc.StateRunning:
		return Running
	case hpc.StateCompleted:
		return Done
	case hpc.StateCancelled:
		return Canceled
	case hpc.StateTimedOut:
		return Failed
	default:
		return Failed
	}
}

// WaitStarted blocks p until the job leaves the queue.
func (j *Job) WaitStarted(p *sim.Proc) { p.Wait(j.backend.Started) }

// Wait blocks p until the job reaches a terminal state and returns it.
func (j *Job) Wait(p *sim.Proc) State {
	p.Wait(j.backend.Done)
	return j.State()
}

// Cancel terminates the job.
func (j *Job) Cancel() { j.service.batch.Cancel(j.backend) }

// QueueWait reports the time spent queued.
func (j *Job) QueueWait() sim.Duration { return j.backend.QueueWait() }

// JobService is the SAGA job service: a submission endpoint bound to one
// resource manager.
type JobService struct {
	URL     string
	scheme  string
	host    string
	eng     *sim.Engine
	batch   *hpc.Batch
	rtt     sim.Duration
	nextJob int
}

// adaptorRTT is the per-operation round-trip cost of each adaptor. The
// values reflect that SLURM's REST-less CLI round trip is cheap, Torque
// and SGE slightly slower, and fork immediate.
var adaptorRTT = map[string]sim.Duration{
	"slurm": 300 * time.Millisecond,
	"pbs":   500 * time.Millisecond,
	"sge":   500 * time.Millisecond,
	"fork":  10 * time.Millisecond,
}

// NewJobService connects to the resource manager behind url. The batch
// argument is the machine's scheduler instance (the "remote side" of the
// adaptor). Supported schemes: slurm, pbs (Torque), sge, fork.
func NewJobService(url string, batch *hpc.Batch) (*JobService, error) {
	scheme, host, ok := strings.Cut(url, "://")
	if !ok {
		return nil, fmt.Errorf("saga: malformed resource URL %q", url)
	}
	rtt, ok := adaptorRTT[scheme]
	if !ok {
		return nil, fmt.Errorf("saga: no adaptor for scheme %q (have slurm, pbs, sge, fork)", scheme)
	}
	if batch == nil {
		return nil, fmt.Errorf("saga: job service %q needs a resource manager", url)
	}
	return &JobService{
		URL:    url,
		scheme: scheme,
		host:   host,
		eng:    batch.Machine().Engine,
		batch:  batch,
		rtt:    rtt,
	}, nil
}

// Submit translates the description to the backend and submits it,
// blocking p for the adaptor round trip.
func (s *JobService) Submit(p *sim.Proc, jd JobDescription) (*Job, error) {
	if jd.Payload == nil {
		return nil, fmt.Errorf("saga: job %q has no payload", jd.Executable)
	}
	if jd.NumNodes <= 0 {
		jd.NumNodes = 1
	}
	p.Sleep(s.rtt) // CLI/API round trip to the scheduler
	bj, err := s.batch.Submit(hpc.JobSpec{
		Name:     jd.Executable,
		Nodes:    jd.NumNodes,
		WallTime: jd.WallTime,
		Queue:    jd.Queue,
		Run:      jd.Payload,
	})
	if err != nil {
		return nil, fmt.Errorf("saga: submit via %s: %w", s.URL, err)
	}
	s.nextJob++
	return &Job{
		ID:          fmt.Sprintf("[%s]-[%d]", s.URL, s.nextJob),
		Description: jd,
		backend:     bj,
		service:     s,
	}, nil
}

// Scheme returns the adaptor scheme in use.
func (s *JobService) Scheme() string { return s.scheme }
