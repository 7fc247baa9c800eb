// Package experiments regenerates every figure of the paper's evaluation
// (Section IV) on the simulated Stampede and Wrangler machines: Figure 5
// (pilot and Compute-Unit startup), Figure 6 (K-Means time-to-completion
// across three scenarios and three task configurations), the speedup
// numbers quoted in the text, and two ablations (shuffle storage target;
// Application-Master reuse). See EXPERIMENTS.md for paper-vs-measured
// discussion.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/yarn"
	"repro/pilot"
)

// Env is one self-contained simulated machine environment. Every
// measurement trial builds a fresh Env so trials are independent and
// deterministic in the seed.
type Env struct {
	Eng     *sim.Engine
	Machine *cluster.Machine
	Batch   *hpc.Batch
	Session *pilot.Session
	Res     *pilot.Resource
	// Rec is the flight recorder attached to the session (tapRecorder):
	// always in cells that audit their own stream, otherwise only while
	// a tap or metrics registry is installed; nil when none. Its stream
	// publishes to the tap at Close under Label.
	Rec *pilot.Recorder
	// Label tags this environment's stream in tap exports; NewEnv sets
	// it to the machine name and callers may override before Close.
	Label string
}

// testbed is the synthetic machine the comparison experiments run on:
// 8-core 32 GB nodes with 400 MB/s local disks, a 1 GB/s Lustre with two
// metadata servers and a 500 MB/s external link. Each experiment
// overrides only the fields its comparison varies.
func testbed(name string, nodes int) cluster.MachineSpec {
	return cluster.MachineSpec{
		Name:  name,
		Nodes: nodes,
		Node: cluster.NodeSpec{
			Cores: 8, MemoryMB: 32 * 1024, DiskBW: 400e6,
			DiskOpLatency: time.Millisecond, NICBW: 1e9,
		},
		FabricBW: 10e9,
		Lustre: storage.LustreSpec{
			AggregateBW: 1e9, MDSServers: 2,
			MDSServiceTime: 2 * time.Millisecond, ClientLatency: 3 * time.Millisecond,
		},
		CPUFactor:  1,
		ExternalBW: 500e6,
	}
}

// testbedBatch is the batch system of every testbed: a 10 s scheduling
// cycle, a 2 s prolog, a 1 s queue-wait floor and a 4 h default wall
// time.
func testbedBatch(seed int64) hpc.Config {
	return hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            seed,
	}
}

// MachineName selects a machine profile.
type MachineName string

// The two evaluation machines.
const (
	Stampede MachineName = "stampede"
	Wrangler MachineName = "wrangler"
)

// NewEnv builds a machine environment with the given number of nodes
// available to the batch system. Wrangler additionally gets a dedicated
// Hadoop environment (its data-portal reservation) so Mode II pilots can
// connect.
func NewEnv(name MachineName, nodes int, seed int64) (*Env, error) {
	profile, ok := cluster.Profiles[string(name)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown machine %q", name)
	}
	batchCfg := hpc.DefaultConfig()
	batchCfg.Seed = seed
	// Idle development-queue behaviour: short dispatch floor, regular
	// scheduling cycles.
	batchCfg.MinQueueWait = 10e9 // 10s
	batchCfg.SchedCycle = 30e9   // 30s
	batchCfg.Prolog = 8e9        // 8s
	batchCfg.DefaultWallTime = 8 * 3600e9
	env, err := newEnv(profile(nodes), batchCfg, pilot.DefaultProfile(), false)
	if err != nil {
		return nil, err
	}
	if name == Wrangler {
		if err := env.addDedicatedHadoop(seed); err != nil {
			env.Eng.Close()
			return nil, err
		}
	}
	return env, nil
}

// newEnv builds one environment on spec: a fresh engine and machine,
// the batch system bcfg configures, a session on prof seeded with
// bcfg.Seed, a resource named after the spec, and a flight recorder
// when record is set or an observer is installed (tapRecorder). Close
// publishes the stream under Label, which starts as the spec's name.
func newEnv(spec cluster.MachineSpec, bcfg hpc.Config, prof pilot.BootstrapProfile, record bool) (*Env, error) {
	eng := sim.NewEngine()
	m := cluster.New(eng, spec)
	b := hpc.NewBatch(m, bcfg)
	session := pilot.NewSession(eng, pilot.WithProfile(prof), pilot.WithSeed(bcfg.Seed))
	rec := tapRecorder(eng, session, record)
	res := &pilot.Resource{Name: spec.Name, URL: "slurm://" + spec.Name, Machine: m, Batch: b}
	if err := session.AddResource(res); err != nil {
		eng.Close()
		return nil, err
	}
	return &Env{Eng: eng, Machine: m, Batch: b, Session: session, Res: res,
		Rec: rec, Label: spec.Name}, nil
}

// addDedicatedHadoop deploys a standing HDFS+YARN environment over every
// node of the machine and registers it on the resource, so Mode II
// pilots can connect to it.
func (e *Env) addDedicatedHadoop(seed int64) error {
	fs, err := hdfs.New(e.Eng, hdfs.DefaultConfig(), e.Machine.Nodes)
	if err != nil {
		return err
	}
	ycfg := yarn.DefaultConfig()
	ycfg.Seed = seed
	ycfg.Fetcher = yarn.VolumeFetcher{Volume: e.Machine.Lustre}
	rm, err := yarn.NewResourceManager(e.Eng, ycfg, e.Machine.Nodes)
	if err != nil {
		return err
	}
	e.Res.DedicatedYARN, e.Res.DedicatedHDFS = rm, fs
	return nil
}

// Close tears the environment down, reaping daemon processes, and
// publishes the recorder stream (if any) to the installed tap.
func (e *Env) Close() {
	tapCommit(e.Label, e.Rec)
	e.Rec = nil
	e.Eng.Close()
}

// System identifies the middleware variant under test.
type System string

// The systems compared in the figures.
const (
	RP           System = "RADICAL-Pilot"
	RPYARN       System = "RADICAL-Pilot-YARN"           // Mode I
	RPYARNModeII System = "RADICAL-Pilot-YARN (Mode II)" // dedicated cluster
)

// pilotDesc builds the pilot description for a system.
func pilotDesc(sys System, machine MachineName, nodes int) pilot.PilotDescription {
	d := pilot.PilotDescription{
		Resource: string(machine),
		Nodes:    nodes,
		Runtime:  6 * 3600e9, // 6h walltime
		Queue:    "development",
	}
	switch sys {
	case RPYARN:
		d.Mode = pilot.ModeYARN
	case RPYARNModeII:
		d.Mode = pilot.ModeYARN
		d.ConnectDedicated = true
	}
	return d
}

// startPilot submits a pilot and waits until it is active, returning it
// with its manager. The driver process p blocks meanwhile.
func startPilot(p *sim.Proc, env *Env, sys System, machine MachineName, nodes int) (*pilot.Pilot, *pilot.UnitManager, error) {
	pm := pilot.NewPilotManager(env.Session)
	desc := pilotDesc(sys, machine, nodes)
	pl, err := pm.Submit(p, desc)
	if err != nil {
		return nil, nil, err
	}
	if !pl.WaitState(p, pilot.PilotActive) {
		return nil, nil, fmt.Errorf("experiments: pilot on %s (%s) ended %v", machine, sys, pl.State())
	}
	um, err := pilot.NewUnitManager(env.Session)
	if err != nil {
		return nil, nil, err
	}
	if err := um.AddPilot(pl); err != nil {
		return nil, nil, err
	}
	return pl, um, nil
}
