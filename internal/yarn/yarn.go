// Package yarn implements the YARN resource manager stack the paper
// integrates with RADICAL-Pilot: a ResourceManager with YARN's default
// FIFO scheduler, NodeManagers with heartbeat-driven
// allocation, containers with localization and launch overheads, and the
// ApplicationMaster protocol (register → allocate → launch → unregister).
//
// The protocol is executed faithfully because the paper's Figure 5 inset
// — Compute-Unit startup taking tens of seconds under YARN versus around
// a second natively — is a direct consequence of its two-stage
// allocation: first the Application Master container is allocated and
// launched, then the AM requests and launches the task container, each
// stage paying heartbeat quantization, localization, and JVM start costs.
package yarn

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// ResourceSpec is a YARN resource vector: memory and virtual cores. YARN
// schedules on both dimensions, which is why the paper's RP-YARN agent
// scheduler "utilizes memory in addition to cores for assigning resource
// slots".
type ResourceSpec struct {
	MemoryMB int64
	VCores   int
}

// Fits reports whether r fits within free.
func (r ResourceSpec) Fits(free ResourceSpec) bool {
	return r.MemoryMB <= free.MemoryMB && r.VCores <= free.VCores
}

// Add returns r + o.
func (r ResourceSpec) Add(o ResourceSpec) ResourceSpec {
	return ResourceSpec{r.MemoryMB + o.MemoryMB, r.VCores + o.VCores}
}

// Sub returns r - o.
func (r ResourceSpec) Sub(o ResourceSpec) ResourceSpec {
	return ResourceSpec{r.MemoryMB - o.MemoryMB, r.VCores - o.VCores}
}

// String formats the vector like YARN's web UI.
func (r ResourceSpec) String() string {
	return fmt.Sprintf("<memory:%d, vCores:%d>", r.MemoryMB, r.VCores)
}

// ResourceFetcher supplies the bytes localized onto a node before its
// first container of an application runs (application jars, Python
// environments). HDFS and the shared filesystem both implement it.
type ResourceFetcher interface {
	Fetch(p *sim.Proc, node *cluster.Node, bytes int64)
}

// Config tunes the YARN deployment. Defaults mirror Hadoop 2.x.
type Config struct {
	// NMHeartbeat is the NodeManager heartbeat interval; container
	// allocation happens only on heartbeats.
	NMHeartbeat sim.Duration
	// AMPoll is the ApplicationMaster allocate-poll interval.
	AMPoll sim.Duration
	// RPCLatency is the cost of one RPC round trip to RM or NM.
	RPCLatency sim.Duration
	// ContainerLaunch is the mean container start overhead (process
	// spawn, cgroup setup, JVM start for Java tasks).
	ContainerLaunch sim.Duration
	// AMLaunch is the mean ApplicationMaster container start overhead.
	AMLaunch sim.Duration
	// LocalizationBytes is the size of application resources localized
	// per (application, node) before the first container runs.
	LocalizationBytes int64
	// Fetcher provides localization data; nil disables localization I/O.
	Fetcher ResourceFetcher
	// DaemonMemoryMB is reserved on each node for NM/DN daemons.
	DaemonMemoryMB int64
	// IgnoreVCores schedules on memory only, like Hadoop's default
	// DefaultResourceCalculator: virtual cores are tracked (and may
	// oversubscribe) but never gate placement.
	IgnoreVCores bool
	// Seed drives launch-time jitter.
	Seed int64
}

// DefaultConfig returns Hadoop-like defaults.
func DefaultConfig() Config {
	return Config{
		NMHeartbeat:       time.Second,
		AMPoll:            time.Second,
		RPCLatency:        20 * time.Millisecond,
		ContainerLaunch:   1500 * time.Millisecond,
		AMLaunch:          2500 * time.Millisecond,
		LocalizationBytes: 150 << 20,
		DaemonMemoryMB:    2048,
		IgnoreVCores:      true,
		Seed:              1,
	}
}

func (c *Config) fill() {
	if c.NMHeartbeat <= 0 {
		c.NMHeartbeat = time.Second
	}
	if c.AMPoll <= 0 {
		c.AMPoll = time.Second
	}
	if c.ContainerLaunch <= 0 {
		c.ContainerLaunch = 1500 * time.Millisecond
	}
	if c.AMLaunch <= 0 {
		c.AMLaunch = 2500 * time.Millisecond
	}
}

// VolumeFetcher adapts a storage volume (e.g. Lustre) into a
// ResourceFetcher: localization reads the bytes from the shared volume
// regardless of node.
type VolumeFetcher struct {
	Volume interface {
		Read(p *sim.Proc, bytes int64)
	}
}

// Fetch reads bytes from the underlying volume.
func (v VolumeFetcher) Fetch(p *sim.Proc, _ *cluster.Node, bytes int64) {
	v.Volume.Read(p, bytes)
}
