package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/data"
	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/saga"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// BootstrapProfile calibrates the agent and cluster bootstrap cost model.
// The defaults reproduce the ranges reported in the paper's Section IV
// (Figure 5): agent startup dominated by the Python environment setup on
// the shared filesystem, Mode I adding 50–85 s for the Hadoop download,
// configuration and daemon starts, and per-unit YARN wrapper setup in the
// tens of seconds.
type BootstrapProfile struct {
	// AgentSetup is the base agent bootstrap (module loads, Python
	// interpreter start).
	AgentSetup sim.Duration
	// AgentVenvOps is the number of small-file operations on the shared
	// filesystem while the agent's virtualenv is set up; each pays the
	// Lustre metadata cost. This is what makes agent bootstrap slow on
	// Stampede's contended filesystem and faster on Wrangler.
	AgentVenvOps int
	// AgentComponents is the startup time of agent components
	// (scheduler, staging workers, heartbeat).
	AgentComponents sim.Duration

	// HadoopDownloadBytes is the Hadoop distribution size fetched in
	// Mode I (the paper's LRM "downloads Hadoop and creates the
	// necessary configuration files").
	HadoopDownloadBytes int64
	// HadoopUnpackOps is the small-file op count of unpacking the
	// distribution to the shared filesystem.
	HadoopUnpackOps int
	// HadoopConfig is the time to render the configuration files
	// (mapred-site.xml, core-site.xml, hdfs-site.xml, yarn-site.xml,
	// slaves, master).
	HadoopConfig sim.Duration
	// HDFSFormat, DaemonStart: NameNode format and per-daemon start
	// times (NN, RM serial; DN, NM parallel across nodes).
	HDFSFormat  sim.Duration
	DaemonStart sim.Duration

	// SparkDownloadBytes and SparkDaemonStart are the Spark standalone
	// equivalents.
	SparkDownloadBytes int64
	SparkDaemonStart   sim.Duration

	// ConnectDedicated is the Mode II cost: discovering and connecting
	// to the already-running cluster.
	ConnectDedicated sim.Duration

	// UnitWrapperSetup and UnitWrapperOps model the per-unit wrapper
	// script that "sets up a RADICAL-Pilot environment, stages the
	// specified files and runs the executable" inside a YARN container;
	// the ops hit the unit's sandbox volume.
	UnitWrapperSetup sim.Duration
	UnitWrapperOps   int

	// ForkSpawn is the plain fork/exec launch cost per unit.
	ForkSpawn sim.Duration
	// MPIStartup is the added mpiexec/aprun startup cost per unit.
	MPIStartup sim.Duration

	// AgentPull is the agent's coordination-store polling interval
	// ("the RADICAL-Pilot-Agent periodically checks for new
	// Compute-Units").
	AgentPull sim.Duration

	// StoreRTT is the round trip to the coordination MongoDB.
	StoreRTT sim.Duration

	// Jitter is the relative run-to-run variation applied to the above.
	Jitter float64
}

// DefaultProfile returns the calibrated bootstrap cost model.
func DefaultProfile() BootstrapProfile {
	return BootstrapProfile{
		AgentSetup:          12 * time.Second,
		AgentVenvOps:        2500,
		AgentComponents:     4 * time.Second,
		HadoopDownloadBytes: 250 << 20,
		HadoopUnpackOps:     1200,
		HadoopConfig:        4 * time.Second,
		HDFSFormat:          5 * time.Second,
		DaemonStart:         8 * time.Second,
		SparkDownloadBytes:  180 << 20,
		SparkDaemonStart:    4 * time.Second,
		ConnectDedicated:    6 * time.Second,
		UnitWrapperSetup:    9 * time.Second,
		UnitWrapperOps:      400,
		ForkSpawn:           250 * time.Millisecond,
		MPIStartup:          1200 * time.Millisecond,
		AgentPull:           time.Second,
		StoreRTT:            15 * time.Millisecond,
		Jitter:              0.15,
	}
}

// Resource is a machine registered with a Session: the simulation-side
// equivalent of an entry in RADICAL-Pilot's resource configuration files.
type Resource struct {
	Name    string
	URL     string // SAGA resource URL, e.g. "slurm://stampede"
	Machine *cluster.Machine
	Batch   *hpc.Batch

	// DedicatedYARN/DedicatedHDFS, if set, form the resource's dedicated
	// Hadoop environment (Wrangler's reserved Hadoop cluster) that Mode
	// II pilots connect to.
	DedicatedYARN *yarn.ResourceManager
	DedicatedHDFS *hdfs.FileSystem
}

// EffectiveURL returns the resource's SAGA URL, defaulting to
// "slurm://<name>" when URL is unset. The default is resolved here at
// use time: AddResource never writes it back into the caller's Resource.
func (r *Resource) EffectiveURL() string {
	if r.URL == "" {
		return "slurm://" + r.Name
	}
	return r.URL
}

// Session owns the client-side managers, the coordination store, and the
// resource registry. It corresponds to radical.pilot.Session.
type Session struct {
	eng       *sim.Engine
	store     *coord.Store
	ft        *saga.FileTransfer
	profile   BootstrapProfile
	resources map[string]*Resource
	seed      int64
	rec       *obs.Recorder
	nextPilot int
	nextUnit  int
	nextUM    int
}

// NewSession creates a session with the given bootstrap profile and RNG
// seed.
func NewSession(e *sim.Engine, profile BootstrapProfile, seed int64) *Session {
	return &Session{
		eng:       e,
		store:     coord.NewStore(e, profile.StoreRTT),
		ft:        saga.NewFileTransfer(e),
		profile:   profile,
		resources: make(map[string]*Resource),
		seed:      seed,
	}
}

// Engine returns the simulation engine.
func (s *Session) Engine() *sim.Engine { return s.eng }

// AttachRecorder wires a flight recorder into the session: every
// manager created afterwards (and every pilot/unit of managers created
// before) records its events through it. Attach before building
// managers to capture the full timeline; attaching nil detaches.
func (s *Session) AttachRecorder(r *obs.Recorder) { s.rec = r }

// Recorder returns the attached flight recorder (nil when none).
func (s *Session) Recorder() *obs.Recorder { return s.rec }

// FileTransfer returns the session's SAGA transfer facade — the path
// Compute-Unit and Data-Unit staging runs over.
func (s *Session) FileTransfer() *saga.FileTransfer { return s.ft }

// NewDataManager creates a Pilot-Data manager staging over the
// session's SAGA transfer facade. Data pilots are added with
// Manager.AddPilot and attached to compute pilots with
// Pilot.AttachDataPilot.
func NewDataManager(s *Session) *data.Manager {
	m := data.NewManager(s.eng, s.ft)
	if s.rec != nil {
		m.SetRecorder(s.rec)
	}
	return m
}

// Store returns the coordination store (exposed for tests and metrics).
func (s *Session) Store() *coord.Store { return s.store }

// Profile returns the bootstrap cost model.
func (s *Session) Profile() BootstrapProfile { return s.profile }

// AddResource registers a machine. The URL scheme selects the SAGA
// adaptor (slurm, pbs, sge, fork); an empty URL means "slurm://<name>"
// (see Resource.EffectiveURL). AddResource never mutates r, so a caller
// may safely reuse one Resource value across sessions.
func (s *Session) AddResource(r *Resource) error {
	if r == nil || r.Name == "" {
		return fmt.Errorf("core: resource needs a name")
	}
	if r.Machine == nil || r.Batch == nil {
		return fmt.Errorf("core: resource %q needs a machine and a batch scheduler", r.Name)
	}
	if _, dup := s.resources[r.Name]; dup {
		return fmt.Errorf("core: duplicate resource %q", r.Name)
	}
	s.resources[r.Name] = r
	return nil
}

// Resource looks up a registered resource.
func (s *Session) Resource(name string) (*Resource, bool) {
	r, ok := s.resources[name]
	return r, ok
}
