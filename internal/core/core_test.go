package core

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/yarn"
)

// TestMain turns the incremental-accounting cross-check on for the whole
// package: every ClusterView any core test reads is re-derived by full
// walk and compared against the running sums, so a drifted delta fails
// loudly here instead of skewing autoscalers silently in production.
func TestMain(m *testing.M) {
	debugViewAudit = true
	os.Exit(m.Run())
}

// env bundles a ready-to-use simulation environment.
type env struct {
	eng     *sim.Engine
	machine *cluster.Machine
	batch   *hpc.Batch
	session *Session
	res     *Resource
}

func testSpec(nodes int) cluster.MachineSpec {
	return cluster.MachineSpec{
		Name:  "tm",
		Nodes: nodes,
		Node: cluster.NodeSpec{
			Cores: 8, MemoryMB: 32 * 1024, DiskBW: 200e6,
			DiskOpLatency: time.Millisecond, NICBW: 1e9,
		},
		FabricBW: 10e9,
		Lustre: storage.LustreSpec{
			AggregateBW: 2e9, MDSServers: 4,
			MDSServiceTime: 2 * time.Millisecond, ClientLatency: 3 * time.Millisecond,
		},
		CPUFactor:  1,
		ExternalBW: 100e6,
	}
}

// fastProfile shrinks bootstrap costs so lifecycle tests stay readable;
// timing-sensitive assertions use DefaultProfile explicitly.
func fastProfile() BootstrapProfile {
	p := DefaultProfile()
	p.AgentSetup = 2 * time.Second
	p.AgentVenvOps = 50
	p.AgentComponents = time.Second
	p.HadoopUnpackOps = 50
	p.HadoopDownloadBytes = 50 << 20
	p.UnitWrapperOps = 20
	p.UnitWrapperSetup = 2 * time.Second
	p.Jitter = 0
	return p
}

func newEnv(t testing.TB, nodes int, prof BootstrapProfile) *env {
	t.Helper()
	eng := sim.NewEngine()
	m := cluster.New(eng, testSpec(nodes))
	b := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            3,
	})
	s := NewSession(eng, prof, 42)
	r := &Resource{Name: "tm", URL: "slurm://tm", Machine: m, Batch: b}
	if err := s.AddResource(r); err != nil {
		t.Fatal(err)
	}
	return &env{eng: eng, machine: m, batch: b, session: s, res: r}
}

// addDedicatedYARN provisions the resource's dedicated Hadoop
// environment (Wrangler's data portal) for Mode II tests.
func (e *env) addDedicatedYARN(t *testing.T) {
	t.Helper()
	fs, err := hdfs.New(e.eng, hdfs.DefaultConfig(), e.machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := yarn.DefaultConfig()
	cfg.Fetcher = yarn.VolumeFetcher{Volume: e.machine.Lustre}
	rm, err := yarn.NewResourceManager(e.eng, cfg, e.machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	e.res.DedicatedYARN = rm
	e.res.DedicatedHDFS = fs
}

// newUM builds a unit manager, failing the test on a bad option.
func newUM(t testing.TB, s *Session, opts ...UnitManagerOption) *UnitManager {
	t.Helper()
	um, err := NewUnitManager(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return um
}

func submitPilot(t *testing.T, p *sim.Proc, e *env, desc PilotDescription) *Pilot {
	t.Helper()
	pm := NewPilotManager(e.session)
	pl, err := pm.Submit(p, desc)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPilotLifecyclePlain(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var states []string
	done := 0
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		if !pl.WaitState(p, PilotActive) {
			t.Errorf("pilot never became active: %v", pl.State())
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		var descs []ComputeUnitDescription
		for i := 0; i < 6; i++ {
			descs = append(descs, ComputeUnitDescription{
				Cores: 2,
				Body: func(bp *sim.Proc, ctx *UnitContext) {
					bp.Sleep(5 * time.Second)
					done++
				},
			})
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != UnitDone {
				t.Errorf("unit %s = %v (%v)", u.ID, u.State(), u.Err)
			}
		}
		pl.Cancel()
		states = append(states, pl.Wait(p).String())
	})
	e.eng.Run()
	e.eng.Close()
	if done != 6 {
		t.Fatalf("%d unit bodies ran, want 6", done)
	}
	if len(states) != 1 || states[0] != "CANCELED" {
		t.Fatalf("final pilot states = %v", states)
	}
}

func TestUnitStateTimestampsMonotonic(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	var unit *Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, _ := um.Submit(p, []ComputeUnitDescription{{
			InputStagingBytes:  10 << 20,
			OutputStagingBytes: 5 << 20,
			Body:               func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) },
		}})
		um.WaitAll(p, units)
		unit = units[0]
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	order := []UnitState{
		UnitSchedulingUM, UnitPendingAgent, UnitSchedulingAgent,
		UnitStagingInput, UnitExecuting, UnitStagingOutput, UnitDone,
	}
	last := sim.Duration(-1)
	for _, st := range order {
		ts, ok := unit.Timestamp(st)
		if !ok {
			t.Fatalf("state %v has no timestamp", st)
		}
		if ts < last {
			t.Fatalf("state %v at %v before previous %v", st, ts, last)
		}
		last = ts
	}
	if unit.StartupTime() <= 0 || unit.TimeToCompletion() < unit.StartupTime() {
		t.Fatalf("startup %v, ttc %v", unit.StartupTime(), unit.TimeToCompletion())
	}
}

func TestSandboxVolumesByMode(t *testing.T) {
	// Plain pilots sandbox on the shared FS; YARN pilots on node-local
	// disk — the Figure 6 mechanism.
	sandboxFor := func(mode PilotMode) string {
		e := newEnv(t, 2, fastProfile())
		var name string
		e.eng.Spawn("driver", func(p *sim.Proc) {
			pl := submitPilot(t, p, e, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour, Mode: mode,
			})
			if !pl.WaitState(p, PilotActive) {
				t.Errorf("%v pilot failed: %v", mode, pl.State())
				return
			}
			um := newUM(t, e.session)
			um.AddPilot(pl)
			units, _ := um.Submit(p, []ComputeUnitDescription{{
				Body: func(bp *sim.Proc, ctx *UnitContext) { name = ctx.Sandbox.Name() },
			}})
			um.WaitAll(p, units)
			if units[0].State() != UnitDone {
				t.Errorf("%v unit: %v (%v)", mode, units[0].State(), units[0].Err)
			}
			pl.Cancel()
		})
		e.eng.Run()
		e.eng.Close()
		return name
	}
	plain := sandboxFor(ModeHPC)
	yarnSB := sandboxFor(ModeYARN)
	if !strings.Contains(plain, "lustre") {
		t.Fatalf("plain sandbox = %q, want shared FS", plain)
	}
	if !strings.Contains(yarnSB, "disk") {
		t.Fatalf("yarn sandbox = %q, want node-local disk", yarnSB)
	}
}

func TestModeIStartupSlowerThanModeII(t *testing.T) {
	startup := func(connect bool) sim.Duration {
		e := newEnv(t, 2, DefaultProfile())
		if connect {
			e.addDedicatedYARN(t)
		}
		var d sim.Duration
		e.eng.Spawn("driver", func(p *sim.Proc) {
			pl := submitPilot(t, p, e, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour,
				Mode: ModeYARN, ConnectDedicated: connect,
			})
			if !pl.WaitState(p, PilotActive) {
				t.Errorf("pilot failed: %v", pl.State())
				return
			}
			d = pl.AgentStartup()
			pl.Cancel()
		})
		e.eng.Run()
		e.eng.Close()
		return d
	}
	modeI := startup(false)
	modeII := startup(true)
	if modeI <= modeII {
		t.Fatalf("Mode I startup (%v) not slower than Mode II (%v)", modeI, modeII)
	}
	// The Mode I Hadoop-spawn overhead must be tens of seconds (the
	// paper's 50–85 s calibration is asserted against the real machine
	// profiles in the experiments package; this test machine has a
	// faster filesystem).
	overhead := modeI - modeII
	if overhead < 15*time.Second || overhead > 150*time.Second {
		t.Fatalf("Mode I overhead = %v, want tens of seconds", overhead)
	}
}

func TestUnitStartupForkVsYARN(t *testing.T) {
	startup := func(mode PilotMode) sim.Duration {
		e := newEnv(t, 2, DefaultProfile())
		var d sim.Duration
		e.eng.Spawn("driver", func(p *sim.Proc) {
			pl := submitPilot(t, p, e, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour, Mode: mode,
			})
			if !pl.WaitState(p, PilotActive) {
				t.Errorf("pilot failed: %v", pl.State())
				return
			}
			um := newUM(t, e.session)
			um.AddPilot(pl)
			units, _ := um.Submit(p, []ComputeUnitDescription{{Executable: "/bin/date"}})
			um.WaitAll(p, units)
			if units[0].State() != UnitDone {
				t.Errorf("unit: %v (%v)", units[0].State(), units[0].Err)
			}
			d = units[0].StartupTime()
			pl.Cancel()
		})
		e.eng.Run()
		e.eng.Close()
		return d
	}
	fork := startup(ModeHPC)
	yarnUp := startup(ModeYARN)
	if fork >= 5*time.Second {
		t.Fatalf("fork unit startup = %v, want ~1s", fork)
	}
	if yarnUp < 10*time.Second || yarnUp > 60*time.Second {
		t.Fatalf("YARN unit startup = %v, want tens of seconds (Fig 5 inset)", yarnUp)
	}
	if yarnUp < 5*fork {
		t.Fatalf("YARN startup (%v) should dwarf fork startup (%v)", yarnUp, fork)
	}
}

func TestRoundRobinOverPilots(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	counts := make(map[string]int)
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pm := NewPilotManager(e.session)
		var pilots []*Pilot
		for i := 0; i < 2; i++ {
			pl, err := pm.Submit(p, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
			})
			if err != nil {
				t.Error(err)
				return
			}
			pilots = append(pilots, pl)
		}
		um := newUM(t, e.session)
		for _, pl := range pilots {
			pl.WaitState(p, PilotActive)
			um.AddPilot(pl)
		}
		var descs []ComputeUnitDescription
		for i := 0; i < 6; i++ {
			descs = append(descs, ComputeUnitDescription{
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) },
			})
		}
		units, _ := um.Submit(p, descs)
		um.WaitAll(p, units)
		for _, u := range units {
			counts[u.Pilot.ID]++
		}
		for _, pl := range pilots {
			pl.Cancel()
		}
	})
	e.eng.Run()
	e.eng.Close()
	if len(counts) != 2 {
		t.Fatalf("units spread over %d pilots, want 2 (%v)", len(counts), counts)
	}
	for id, n := range counts {
		if n != 3 {
			t.Fatalf("pilot %s got %d units, want 3", id, n)
		}
	}
}

func TestCancelPilotCancelsRunningUnits(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	var st UnitState
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, _ := um.Submit(p, []ComputeUnitDescription{{
			Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Hour) },
		}})
		p.Sleep(30 * time.Second) // let the unit reach EXECUTING
		pl.Cancel()
		st = units[0].Wait(p)
	})
	e.eng.Run()
	e.eng.Close()
	if st != UnitCanceled {
		t.Fatalf("unit state = %v, want CANCELED", st)
	}
}

func TestWalltimeFailsPilot(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	var pst PilotState
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: 2 * time.Minute, Mode: ModeHPC,
		})
		pst = pl.Wait(p)
	})
	e.eng.Run()
	e.eng.Close()
	if pst != PilotFailed {
		t.Fatalf("pilot state = %v, want FAILED (walltime)", pst)
	}
}

func TestOversizeUnitFails(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	var u *Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, _ := um.Submit(p, []ComputeUnitDescription{{Cores: 999}})
		um.WaitAll(p, units)
		u = units[0]
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if u.State() != UnitFailed || u.Err == nil {
		t.Fatalf("unit = %v err=%v, want FAILED with cause", u.State(), u.Err)
	}
}

func TestSparkModeRunsUnits(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	ran := 0
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeSpark,
		})
		if !pl.WaitState(p, PilotActive) {
			t.Errorf("spark pilot failed: %v", pl.State())
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		var descs []ComputeUnitDescription
		for i := 0; i < 4; i++ {
			descs = append(descs, ComputeUnitDescription{
				Cores: 4,
				Body:  func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second); ran++ },
			})
		}
		units, _ := um.Submit(p, descs)
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != UnitDone {
				t.Errorf("unit %v: %v", u.ID, u.Err)
			}
		}
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if ran != 4 {
		t.Fatalf("ran = %d, want 4", ran)
	}
}

func TestDescriptionValidation(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pm := NewPilotManager(e.session)
		bad := []PilotDescription{
			{},
			{Resource: "tm"},
			{Resource: "tm", Nodes: 1},
			{Resource: "nope", Nodes: 1, Runtime: time.Hour},
			{Resource: "tm", Nodes: 1, Runtime: time.Hour, ConnectDedicated: true},
			{Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeYARN, ConnectDedicated: true},
		}
		for i, d := range bad {
			if _, err := pm.Submit(p, d); err == nil {
				t.Errorf("bad description %d accepted", i)
			}
		}
	})
	e.eng.Run()
	e.eng.Close()
}

func TestUnitManagerValidation(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	um := newUM(t, e.session)
	e.eng.Spawn("driver", func(p *sim.Proc) {
		if _, err := um.Submit(p, []ComputeUnitDescription{{}}); err == nil {
			t.Error("submit without pilots accepted")
		}
	})
	if err := um.AddPilot(nil); err == nil {
		t.Error("nil pilot accepted")
	}
	e.eng.Run()
	e.eng.Close()
}

func TestSessionResourceValidation(t *testing.T) {
	e := sim.NewEngine()
	s := NewSession(e, DefaultProfile(), 1)
	if err := s.AddResource(nil); err == nil {
		t.Error("nil resource accepted")
	}
	if err := s.AddResource(&Resource{Name: "x"}); err == nil {
		t.Error("resource without machine accepted")
	}
	m := cluster.New(e, testSpec(1))
	b := hpc.NewBatch(m, hpc.DefaultConfig())
	if err := s.AddResource(&Resource{Name: "x", Machine: m, Batch: b}); err != nil {
		t.Error(err)
	}
	if err := s.AddResource(&Resource{Name: "x", Machine: m, Batch: b}); err == nil {
		t.Error("duplicate resource accepted")
	}
	e.Close()
}

func TestAgentSchedulerNoOvercommit(t *testing.T) {
	// 1 node with 8 cores; 6 units of 3 cores each: at most 2 run
	// concurrently. Track concurrency inside bodies.
	e := newEnv(t, 1, fastProfile())
	cur, maxCur := 0, 0
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session)
		um.AddPilot(pl)
		var descs []ComputeUnitDescription
		for i := 0; i < 6; i++ {
			descs = append(descs, ComputeUnitDescription{
				Cores: 3,
				Body: func(bp *sim.Proc, ctx *UnitContext) {
					cur++
					if cur > maxCur {
						maxCur = cur
					}
					bp.Sleep(10 * time.Second)
					cur--
				},
			})
		}
		units, _ := um.Submit(p, descs)
		um.WaitAll(p, units)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if maxCur != 2 {
		t.Fatalf("max concurrency = %d, want 2 (8 cores / 3 per unit)", maxCur)
	}
}

func TestYARNModeRunsUnitsThroughContainers(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	ran := 0
	var metrics *yarn.ClusterMetrics
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour, Mode: ModeYARN,
		})
		if !pl.WaitState(p, PilotActive) {
			t.Errorf("pilot: %v", pl.State())
			return
		}
		metrics = pl.YARNMetrics()
		um := newUM(t, e.session)
		um.AddPilot(pl)
		var descs []ComputeUnitDescription
		for i := 0; i < 4; i++ {
			descs = append(descs, ComputeUnitDescription{
				Cores: 2, MemoryMB: 4096,
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(20 * time.Second); ran++ },
			})
		}
		units, _ := um.Submit(p, descs)
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != UnitDone {
				t.Errorf("unit %s: %v (%v)", u.ID, u.State(), u.Err)
			}
		}
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if ran != 4 {
		t.Fatalf("ran = %d, want 4", ran)
	}
	if metrics == nil || metrics.ActiveNodes != 2 {
		t.Fatalf("metrics = %+v, want 2 active nodes", metrics)
	}
}
