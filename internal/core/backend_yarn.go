package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// errRequiresYARN names the backend a YARN-only description field needs.
func errRequiresYARN(field string) error {
	return fmt.Errorf("core: %s requires the %q backend", field, ModeYARN)
}

// yarnBackend executes units as YARN applications. In the paper's Mode I
// ("Hadoop on HPC") Bootstrap spawns an HDFS+YARN cluster inside the
// allocation; with ConnectDedicated (Mode II, "HPC on Hadoop") it
// connects to the resource's dedicated, pre-provisioned Hadoop
// environment instead. Units run through a managed per-unit Application
// Master (paper Figure 4), or through one pilot-wide persistent AM when
// the description sets ReuseAM.
type yarnBackend struct {
	rm     *yarn.ResourceManager
	fs     *hdfs.FileSystem
	ownsRM bool // Mode I spawned the cluster and must stop it
	pam    *persistentAM
	sched  *yarnScheduler
}

func (*yarnBackend) Name() string { return string(ModeYARN) }

func (*yarnBackend) Validate(d PilotDescription, res *Resource) error {
	if d.ConnectDedicated && res.DedicatedYARN == nil {
		return fmt.Errorf("core: resource %q has no dedicated Hadoop environment for Mode II", res.Name)
	}
	return nil
}

func (b *yarnBackend) Bootstrap(p *sim.Proc, bc *BackendContext) (AgentScheduler, error) {
	if bc.Pilot.Desc.ConnectDedicated {
		// Mode II: the cluster already runs (e.g. Wrangler's data
		// portal environment); just discover and connect.
		p.Sleep(bc.Jitter(bc.Profile.ConnectDedicated))
		b.rm = bc.Pilot.res.DedicatedYARN
		b.fs = bc.Pilot.res.DedicatedHDFS
	} else {
		if err := b.bootstrapHadoop(p, bc); err != nil {
			return nil, err
		}
		b.ownsRM = true
	}
	met := b.rm.Metrics()
	b.sched = newYARNScheduler(bc.Session.Engine(), met.TotalMB, met.TotalVCores)
	if bc.Pilot.Desc.ReuseAM {
		if err := b.startPersistentAM(p, bc); err != nil {
			return nil, err
		}
	}
	return b.sched, nil
}

// bootstrapHadoop is the paper's Mode I LRM sequence: download the
// distribution, unpack it onto the shared filesystem, write the
// configuration files, format HDFS, and start the daemons (NameNode and
// ResourceManager on the agent node, DataNodes and NodeManagers
// everywhere).
func (b *yarnBackend) bootstrapHadoop(p *sim.Proc, bc *BackendContext) error {
	started := p.Now()
	defer func() { bc.Pilot.HadoopSpawnTime = p.Now() - started }()
	prof := bc.Profile
	bc.Machine.DownloadExternal(p, prof.HadoopDownloadBytes)
	lustre := bc.Machine.Lustre
	lustre.Write(p, prof.HadoopDownloadBytes) // store the tarball
	for i := 0; i < prof.HadoopUnpackOps; i++ {
		lustre.Touch(p) // untar: one metadata op per file
	}
	p.Sleep(bc.Jitter(prof.HadoopConfig))

	// HDFS: format, then NameNode (serial), then DataNodes (parallel).
	p.Sleep(bc.Jitter(prof.HDFSFormat))
	fs, err := hdfs.New(bc.Session.Engine(), hdfs.DefaultConfig(), bc.Alloc.Nodes)
	if err != nil {
		return err
	}
	p.Sleep(bc.Jitter(prof.DaemonStart)) // NameNode start
	p.Sleep(bc.Jitter(prof.DaemonStart)) // DataNodes start (parallel wave)

	// YARN: ResourceManager (serial), then NodeManagers (parallel).
	p.Sleep(bc.Jitter(prof.DaemonStart)) // ResourceManager start
	ycfg := yarn.DefaultConfig()
	ycfg.Seed = bc.Session.seed
	// The RP environment bundle is localized from the agent sandbox on
	// the shared filesystem.
	ycfg.Fetcher = yarn.VolumeFetcher{Volume: lustre}
	rm, err := yarn.NewResourceManager(bc.Session.Engine(), ycfg, bc.Alloc.Nodes)
	if err != nil {
		return err
	}
	p.Sleep(bc.Jitter(prof.DaemonStart)) // NodeManagers start + register
	b.fs = fs
	b.rm = rm
	return nil
}

// yarnContainerBody wraps the unit body in the RP wrapper script:
// environment setup and staging inside the container on the node-local
// disk, then the executable.
func yarnContainerBody(bc *BackendContext, u *Unit) yarn.ContainerBody {
	return func(cp *sim.Proc, cc *yarn.Container) {
		node := cc.NodeManager().Node()
		node.Disk.TouchN(cp, bc.Profile.UnitWrapperOps)
		cp.Sleep(bc.Jitter(bc.Profile.UnitWrapperSetup))
		bc.RunUnitBody(cp, u, node, node.Disk)
	}
}

// LaunchUnit runs the unit as a YARN application with a managed
// Application Master, exactly the structure of the paper's Figure 4:
// submit → AM container starts → AM requests a task container → the
// wrapper script sets up the RADICAL-Pilot environment in the container
// and runs the executable. The unit sandbox is the container working
// directory on the node-local disk.
func (b *yarnBackend) LaunchUnit(p *sim.Proc, bc *BackendContext, u *Unit, _ *Slot) error {
	if b.pam != nil {
		// AM reuse: the pilot-wide application master serves the unit;
		// no per-unit client start, submission, or AM launch.
		return b.pam.run(p, bc, u, yarnContainerBody(bc, u))
	}
	// `yarn jar RadicalYarnApp` — JVM client start before submission.
	p.Sleep(bc.Jitter(bc.Profile.UnitWrapperSetup / 4))
	app, err := b.rm.Submit(p, yarn.AppDesc{
		Name:       "rp:" + u.ID,
		AMResource: yarn.ResourceSpec{MemoryMB: amOverhead.MemMB, VCores: amOverhead.Cores},
		Runner: func(ap *sim.Proc, am *yarn.AppMaster) {
			am.Register(ap)
			spec := yarn.ResourceSpec{MemoryMB: u.Desc.MemoryMB, VCores: u.Desc.Cores}
			if err := am.RequestContainers(ap, spec, 1, nil); err != nil {
				am.Unregister(ap, yarn.StatusFailed)
				return
			}
			c := am.NextContainer(ap)
			am.Launch(ap, c, yarnContainerBody(bc, u))
			ap.Wait(c.Done)
			if c.ExitCode == 0 {
				am.Unregister(ap, yarn.StatusSucceeded)
			} else {
				am.Unregister(ap, yarn.StatusFailed)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("core: unit %s YARN submission: %w", u.ID, err)
	}
	if st := app.Wait(p); st != yarn.StatusSucceeded {
		return fmt.Errorf("core: unit %s YARN application finished %s", u.ID, st)
	}
	return nil
}

func (b *yarnBackend) Teardown(*BackendContext) {
	if b.rm != nil && b.ownsRM {
		b.rm.Stop()
	}
}

// Resizable implements ElasticBackend. Mode I pilots own their spawned
// cluster and can extend it; Mode II pilots connect to a dedicated
// cluster they do not manage and therefore cannot resize it.
func (b *yarnBackend) Resizable(bc *BackendContext) error {
	if bc.Pilot.Desc.ConnectDedicated {
		return fmt.Errorf("%w: Mode II pilot does not manage the dedicated cluster", ErrNotElastic)
	}
	return nil
}

// Grow implements ElasticBackend — the paper's cluster-extension mode:
// NodeManagers are spawned on the chunk's nodes and register with the
// running ResourceManager, and the agent scheduler's admission ceiling
// rises by their capacity. HDFS stays on the base allocation (the paper
// extends compute, not storage).
func (b *yarnBackend) Grow(p *sim.Proc, bc *BackendContext, nodes []*cluster.Node) error {
	p.Sleep(bc.Jitter(bc.Profile.DaemonStart)) // NodeManagers start (parallel wave)
	nms, err := b.rm.AddNodes(nodes)
	if err != nil {
		return err
	}
	mb, vcores := nmCapacity(nms)
	b.sched.growCapacity(mb, vcores)
	return nil
}

// Shrink implements ElasticBackend: the agent scheduler first retires
// the chunk's share of the admission ceiling (waiting for slots to come
// free rather than revoking any), then the NodeManagers decommission
// gracefully — no new containers, live ones run to completion.
func (b *yarnBackend) Shrink(p *sim.Proc, _ *BackendContext, nodes []*cluster.Node) error {
	nms := b.rm.NodeManagersFor(nodes)
	if len(nms) != len(nodes) {
		return fmt.Errorf("core: %d of %d nodes have no live NodeManager", len(nodes)-len(nms), len(nodes))
	}
	mb, vcores := nmCapacity(nms)
	b.sched.shrinkCapacity(p, mb, vcores)
	b.rm.Decommission(p, nms)
	return nil
}

// nmCapacity sums NodeManager capacities.
func nmCapacity(nms []*yarn.NodeManager) (mb int64, vcores int) {
	for _, nm := range nms {
		c := nm.Capacity()
		mb += c.MemoryMB
		vcores += c.VCores
	}
	return mb, vcores
}

// YARNMetrics exposes the connected cluster's metrics, satisfying
// YARNMetricsProvider.
func (b *yarnBackend) YARNMetrics() *yarn.ClusterMetrics {
	if b.rm == nil {
		return nil
	}
	m := b.rm.Metrics()
	return &m
}

// YARNMetricsProvider is implemented by backends that run on a YARN
// cluster and can report its full metrics snapshot (used by tests, the
// repro harness and autoscale policies through Pilot.YARNMetrics).
// Capacity estimates on the bind path do not go through it; they read
// pilotCoreCapacity.
type YARNMetricsProvider interface {
	YARNMetrics() *yarn.ClusterMetrics
}

// HDFS exposes the filesystem the backend's units read from, satisfying
// HDFSProvider; nil until Bootstrap has run.
func (b *yarnBackend) HDFS() *hdfs.FileSystem { return b.fs }

// HDFSProvider is implemented by backends whose pilots carry an HDFS
// filesystem, read through Pilot.HDFS (e.g. to provision an HDFS-backed
// data pilot).
type HDFSProvider interface {
	HDFS() *hdfs.FileSystem
}
