package pilot_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/saga"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/pilot"
)

// toyDataBackend is the conformance suite's fourth backend, registered
// through the public API: a volume-backed store over whatever Volume the
// description carries — no internal/data changes required.
type toyDataBackend struct{}

func (toyDataBackend) Name() string { return "toy-vol" }

func (toyDataBackend) Provision(_ *sim.Engine, ft *saga.FileTransfer, d pilot.DataPilotDescription) (pilot.DataStore, error) {
	if d.Volume == nil {
		return nil, fmt.Errorf("toy-vol pilot %s needs a volume", d.Label)
	}
	return pilot.NewVolumeDataStore(ft, "toy:"+d.Label, "toy-vol", d.Volume, d.CapacityBytes), nil
}

func registerToyDataBackend(t *testing.T) {
	t.Helper()
	err := pilot.RegisterDataBackend("toy-vol", func() pilot.DataBackend { return toyDataBackend{} })
	if err != nil && !slices.Contains(pilot.DataBackends(), "toy-vol") {
		t.Fatal(err)
	}
}

// dataEnv is one conformance environment: a machine, a session, and a
// per-backend data-pilot description builder.
type dataEnv struct {
	*testEnv
	dm *pilot.DataManager
	fs *hdfs.FileSystem
}

func newDataEnv(t *testing.T) *dataEnv {
	t.Helper()
	e := newTestEnv(t, 4)
	fs, err := hdfs.New(e.eng, hdfs.DefaultConfig(), e.machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &dataEnv{testEnv: e, dm: pilot.NewDataManager(e.session), fs: fs}
}

// pilotDesc builds a data-pilot description for the named backend.
func (e *dataEnv) pilotDesc(t *testing.T, backend, label string) pilot.DataPilotDescription {
	t.Helper()
	d := pilot.DataPilotDescription{Backend: backend, Label: label}
	switch backend {
	case pilot.DataBackendLustre:
		d.Lustre = e.machine.Lustre
	case pilot.DataBackendHDFS:
		d.HDFS = e.fs
	case pilot.DataBackendMem:
		d.CapacityBytes = 1 << 30
	case "toy-vol":
		d.Volume = storage.NewLocalDisk(e.eng, "toyvol:"+label, 300e6, time.Millisecond)
	default:
		t.Fatalf("no description builder for data backend %q", backend)
	}
	return d
}

// conformanceBackends returns every registered backend the suite runs
// against; the toy one is registered here so the list always includes
// it.
func conformanceBackends(t *testing.T) []string {
	t.Helper()
	registerToyDataBackend(t)
	names := pilot.DataBackends()
	for _, want := range []string{
		pilot.DataBackendLustre, pilot.DataBackendHDFS, pilot.DataBackendMem, "toy-vol",
	} {
		if !slices.Contains(names, want) {
			t.Fatalf("DataBackends() = %v, missing %q", names, want)
		}
	}
	return names
}

// placeTwo stages two units over two pilots of the backend and returns
// the replica label sequences (placement fingerprint).
func placeTwo(t *testing.T, backend string) [][]string {
	t.Helper()
	e := newDataEnv(t)
	a, err := e.dm.AddPilot(e.pilotDesc(t, backend, "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.dm.AddPilot(e.pilotDesc(t, backend, "b"))
	if err != nil {
		t.Fatal(err)
	}
	var placements [][]string
	e.run(t, func(p *sim.Proc) {
		sizes := []int64{96 << 20, 32 << 20}
		for i, size := range sizes {
			du, err := e.dm.Submit(p, pilot.DataUnitDescription{
				Name: fmt.Sprintf("/c/unit-%d", i), SizeBytes: size, Replication: 2,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if du.State() != pilot.DataReplicated {
				t.Errorf("%s: unit %d state %v after Submit", backend, i, du.State())
			}
			var labels []string
			for _, dp := range du.Replicas() {
				labels = append(labels, dp.Label())
				// No bytes lost: every replica store holds the full size.
				if got := dp.Store().ObjectBytes(du.Name()); got != size {
					t.Errorf("%s: replica on %s holds %d bytes, want %d", backend, dp.Label(), got, size)
				}
			}
			// Replication honored: exactly min(Replication, pilots).
			if len(labels) != 2 {
				t.Errorf("%s: unit %d has %d replicas, want 2", backend, i, len(labels))
			}
			placements = append(placements, labels)
		}
		// Both stores account for both units.
		wantUsed := int64(96<<20 + 32<<20)
		for _, dp := range []*pilot.DataPilot{a, b} {
			if got := dp.Store().UsedBytes(); got != wantUsed {
				t.Errorf("%s: store %s used %d bytes, want %d", backend, dp.Label(), got, wantUsed)
			}
		}
		// Over-replication caps at the pilot count, like HDFS.
		over, err := e.dm.Submit(p, pilot.DataUnitDescription{
			Name: "/c/over", SizeBytes: 1 << 20, Replication: 5,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if got := len(over.Replicas()); got != 2 {
			t.Errorf("%s: replication 5 over 2 pilots placed %d replicas, want 2", backend, got)
		}
	})
	return placements
}

// TestDataBackendConformance runs the invariants every registered data
// backend must uphold: no bytes lost, replication count honored,
// deterministic placement, and stage-in completing before the consuming
// Compute-Unit reaches UnitExecuting.
func TestDataBackendConformance(t *testing.T) {
	for _, backend := range conformanceBackends(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Run("BytesAndReplication", func(t *testing.T) {
				placeTwo(t, backend)
			})
			t.Run("DeterministicPlacement", func(t *testing.T) {
				p1, p2 := placeTwo(t, backend), placeTwo(t, backend)
				if len(p1) != len(p2) {
					t.Fatalf("placement runs differ in length: %v vs %v", p1, p2)
				}
				for i := range p1 {
					if !slices.Equal(p1[i], p2[i]) {
						t.Fatalf("placement not deterministic: %v vs %v", p1, p2)
					}
				}
			})
			t.Run("StageInBeforeRunning", func(t *testing.T) {
				testStageInBeforeRunning(t, backend)
			})
		})
	}
}

// testStageInBeforeRunning submits a Compute-Unit referencing a staged
// Data-Unit and checks the ordering contract: the input is Replicated
// and the unit passed UnitStagingInput before it reached UnitExecuting.
func testStageInBeforeRunning(t *testing.T, backend string) {
	e := newDataEnv(t)
	dp, err := e.dm.AddPilot(e.pilotDesc(t, backend, "near"))
	if err != nil {
		t.Fatal(err)
	}
	stateInBody := pilot.DataNew
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := pl.AttachDataPilot(dp); err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session, pilot.WithScheduler(pilot.SchedulerCoLocate))
		if err := um.AddPilot(pl); err != nil {
			t.Error(err)
			return
		}
		du, err := e.dm.Submit(p, pilot.DataUnitDescription{
			Name: "/c/input", SizeBytes: 64 << 20, Affinity: "near",
		})
		if err != nil {
			t.Error(err)
			return
		}
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{{
			Name:   "consumer",
			Inputs: []pilot.DataRef{{Unit: du}},
			Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
				stateInBody = du.State()
			},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		u := units[0]
		if u.State() != pilot.UnitDone {
			t.Fatalf("%s: consumer finished %v: %v", backend, u.State(), u.Err)
		}
		staged, ok1 := u.Timestamp(pilot.UnitStagingInput)
		running, ok2 := u.Timestamp(pilot.UnitExecuting)
		if !ok1 || !ok2 || staged > running {
			t.Errorf("%s: stage-in at %v not before RUNNING at %v", backend, staged, running)
		}
		replicated, ok := du.Timestamp(pilot.DataReplicated)
		if !ok || replicated > running {
			t.Errorf("%s: input replicated at %v, after RUNNING at %v", backend, replicated, running)
		}
		pl.Cancel()
	})
	if stateInBody != pilot.DataReplicated {
		t.Errorf("%s: body observed input state %v, want REPLICATED", backend, stateInBody)
	}
}

// TestDataRegistryHygiene pins the public data-backend registry rules
// and the sentinel errors.
func TestDataRegistryHygiene(t *testing.T) {
	registerToyDataBackend(t)
	if err := pilot.RegisterDataBackend("toy-vol", func() pilot.DataBackend { return toyDataBackend{} }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := pilot.RegisterDataBackend("", func() pilot.DataBackend { return toyDataBackend{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := pilot.RegisterDataBackend("nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}
	e := newDataEnv(t)
	if _, err := e.dm.AddPilot(pilot.DataPilotDescription{Backend: "no-such"}); !errors.Is(err, pilot.ErrUnknownDataBackend) {
		t.Errorf("unknown backend error = %v, want pilot.ErrUnknownDataBackend", err)
	}
	e.run(t, func(p *sim.Proc) {
		du, err := e.dm.Submit(p, pilot.DataUnitDescription{Name: "/nowhere", SizeBytes: 1})
		if !errors.Is(err, pilot.ErrNoDataPilots) {
			t.Errorf("Submit with no data pilots = %v, want pilot.ErrNoDataPilots", err)
		}
		if du == nil || du.State() != pilot.DataFailed || !errors.Is(du.Err, pilot.ErrNoDataPilots) {
			t.Error("failed staging did not leave the unit FAILED with the sentinel cause")
		}
	})
}

// TestComputeUnitFailsOnUnavailableInput: a Compute-Unit whose input
// data unit failed staging fails with ErrDataUnavailable instead of
// hanging or running without its data.
func TestComputeUnitFailsOnUnavailableInput(t *testing.T) {
	e := newDataEnv(t)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		if err := um.AddPilot(pl); err != nil {
			t.Error(err)
			return
		}
		// No data pilots: staging fails, leaving the unit FAILED.
		du, _ := e.dm.Submit(p, pilot.DataUnitDescription{Name: "/gone", SizeBytes: 1 << 20})
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{{
			Name:   "orphan-consumer",
			Inputs: []pilot.DataRef{{Unit: du}},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		if units[0].State() != pilot.UnitFailed || !errors.Is(units[0].Err, pilot.ErrDataUnavailable) {
			t.Errorf("consumer = %v (%v), want FAILED with ErrDataUnavailable", units[0].State(), units[0].Err)
		}
		pl.Cancel()
	})
}

// TestOutputFeedsInputWithoutDeadlock: a consumer submitted before its
// producer, both sized to the whole pilot. The consumer must wait for
// its input WITHOUT holding cores — otherwise the producer could never
// run and the pipeline would deadlock.
func TestOutputFeedsInputWithoutDeadlock(t *testing.T) {
	e := newDataEnv(t)
	dp, err := e.dm.AddPilot(pilot.DataPilotDescription{
		Backend: pilot.DataBackendMem, Label: "buf", CapacityBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	produced := false
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := pl.AttachDataPilot(dp); err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		if err := um.AddPilot(pl); err != nil {
			t.Error(err)
			return
		}
		inter, err := e.dm.Declare(pilot.DataUnitDescription{
			Name: "/pipe/intermediate", SizeBytes: 32 << 20, Affinity: "buf",
		})
		if err != nil {
			t.Error(err)
			return
		}
		// Consumer first, producer second — both need all 8 cores.
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{
			{
				Name: "consumer", Cores: 8,
				Inputs: []pilot.DataRef{{Unit: inter}},
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					if !produced {
						t.Error("consumer ran before the producer staged its output")
					}
				},
			},
			{
				Name: "producer", Cores: 8,
				Outputs: []pilot.DataRef{{Unit: inter}},
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					bp.Sleep(2 * time.Second)
					produced = true
				},
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				t.Errorf("unit %s = %v (%v), want DONE", u.Desc.Name, u.State(), u.Err)
			}
		}
		if inter.State() != pilot.DataReplicated {
			t.Errorf("intermediate data unit ended %v, want REPLICATED", inter.State())
		}
		pl.Cancel()
	})
}

// TestProducerFailureCancelsOutputs: a producer that fails before
// staging its declared output cancels it, so a parked consumer fails
// with ErrDataUnavailable instead of waiting forever.
func TestProducerFailureCancelsOutputs(t *testing.T) {
	e := newDataEnv(t)
	dp, err := e.dm.AddPilot(pilot.DataPilotDescription{
		Backend: pilot.DataBackendMem, Label: "buf", CapacityBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := pl.AttachDataPilot(dp); err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		if err := um.AddPilot(pl); err != nil {
			t.Error(err)
			return
		}
		inter, err := e.dm.Declare(pilot.DataUnitDescription{
			Name: "/pipe/never", SizeBytes: 1 << 20,
		})
		if err != nil {
			t.Error(err)
			return
		}
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{
			{
				// The producer demands more cores than any node has, so
				// it fails in agent scheduling before staging outputs.
				Name: "doomed-producer", Cores: 64,
				Outputs: []pilot.DataRef{{Unit: inter}},
			},
			{
				Name:   "starved-consumer",
				Inputs: []pilot.DataRef{{Unit: inter}},
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		if units[0].State() != pilot.UnitFailed {
			t.Errorf("producer = %v, want FAILED", units[0].State())
		}
		if inter.State() != pilot.DataCanceled {
			t.Errorf("orphan output = %v, want CANCELED", inter.State())
		}
		if units[1].State() != pilot.UnitFailed || !errors.Is(units[1].Err, pilot.ErrDataUnavailable) {
			t.Errorf("consumer = %v (%v), want FAILED with ErrDataUnavailable", units[1].State(), units[1].Err)
		}
		pl.Cancel()
	})
}
