package core

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// hpcBackend is the classic RADICAL-Pilot agent: a continuous core
// scheduler over the allocation's nodes and fork/mpiexec/aprun launch
// methods, with unit sandboxes on the shared parallel filesystem
// (RADICAL-Pilot's default sandbox location) — the reason the paper's
// K-Means on plain RP shuffles through Lustre. It is elastic: extra
// allocation chunks feed the continuous scheduler's node pool directly.
type hpcBackend struct {
	sched *continuousScheduler
}

func (*hpcBackend) Name() string { return string(ModeHPC) }

// Validate has nothing backend-specific to check: the YARN-only
// description fields are already rejected by PilotDescription.Validate
// for every non-YARN backend.
func (*hpcBackend) Validate(PilotDescription, *Resource) error { return nil }

func (b *hpcBackend) Bootstrap(p *sim.Proc, bc *BackendContext) (AgentScheduler, error) {
	p.Sleep(bc.Jitter(500e6)) // evaluate RM environment variables
	b.sched = newContinuousScheduler(bc.Session.Engine(), bc.Alloc.Nodes)
	return b.sched, nil
}

func (b *hpcBackend) LaunchUnit(p *sim.Proc, bc *BackendContext, u *Unit, sl *Slot) error {
	spawn := bc.Profile.ForkSpawn
	switch u.Desc.Launch {
	case LaunchMPIExec, LaunchAPRun:
		spawn += bc.Profile.MPIStartup
	}
	p.Sleep(bc.Jitter(spawn))
	var sandbox storage.Volume = bc.Machine.Lustre
	if bc.Pilot.Desc.LocalSandbox {
		sandbox = sl.Node.Disk
	}
	bc.RunUnitBody(p, u, sl.Node, sandbox)
	return nil
}

func (*hpcBackend) Teardown(*BackendContext) {}

// Resizable implements ElasticBackend: plain HPC pilots always resize.
func (*hpcBackend) Resizable(*BackendContext) error { return nil }

// Grow implements ElasticBackend: the chunk's nodes join the continuous
// scheduler's pool after the launcher re-reads its node list.
func (b *hpcBackend) Grow(p *sim.Proc, bc *BackendContext, nodes []*cluster.Node) error {
	p.Sleep(bc.Jitter(500e6)) // rewrite the launcher node file
	b.sched.addNodes(nodes)
	return nil
}

// Shrink implements ElasticBackend: the nodes are drained out of the
// scheduler — running units finish undisturbed — before release.
func (b *hpcBackend) Shrink(p *sim.Proc, _ *BackendContext, nodes []*cluster.Node) error {
	b.sched.drainNodes(p, nodes)
	return nil
}
