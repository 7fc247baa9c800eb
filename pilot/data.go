// Pilot-Data: first-class data units with staging, replication and
// compute–data co-scheduling, re-exported from internal/data. See the
// package documentation in doc.go for the overview.

package pilot

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/saga"
	"repro/internal/storage"
)

type (
	// DataManager owns data pilots and drives Data-Units through
	// staging and replication — the Pilot-Data analogue of the
	// UnitManager. Build one with NewDataManager.
	DataManager = data.Manager
	// DataPilot is a provisioned store on a storage backend, holding
	// Data-Unit replicas; attach one to a compute pilot with
	// Pilot.AttachDataPilot.
	DataPilot = data.Pilot
	// DataUnit is a logical dataset with managed replicas and its own
	// state machine (DataNew → DataStagingIn → DataReplicated → final).
	// Its Timestamps array holds when each state was entered;
	// Timestamp(st) also reports whether st was reached.
	DataUnit = data.Unit
	// DataPilotDescription describes a data-pilot request: the backend
	// and the storage it binds to.
	DataPilotDescription = data.PilotDescription
	// DataUnitDescription describes one Data-Unit: logical name, size,
	// replication target, pilot affinity, staging source.
	DataUnitDescription = data.UnitDescription
	// DataUnitState follows the Pilot-Data state model.
	DataUnitState = data.UnitState
	// DataUnitCallback observes a Data-Unit entering a state, through
	// DataUnit.OnStateChange.
	DataUnitCallback = data.UnitCallback

	// DataBackend is the pluggable storage seam data pilots provision
	// through; see RegisterDataBackend.
	DataBackend = data.Backend
	// DataStore is a provisioned data-backend instance — the place a
	// data pilot keeps its replicas.
	DataStore = data.Store

	// DataRef is a typed reference from a Compute-Unit to a Data-Unit
	// (ComputeUnitDescription.Inputs / Outputs).
	DataRef = core.DataRef
)

// Data-Unit states in lifecycle order.
const (
	DataNew        = data.StateNew
	DataStagingIn  = data.StateStagingIn
	DataReplicated = data.StateReplicated
	DataDone       = data.StateDone
	DataCanceled   = data.StateCanceled
	DataFailed     = data.StateFailed
)

// The built-in data backends.
const (
	// DataBackendLustre keeps replicas on the shared parallel
	// filesystem: reachable from every pilot, every read pays the
	// contended Lustre path — the remote-staging mode.
	DataBackendLustre = data.BackendLustre
	// DataBackendHDFS keeps replicas in an HDFS filesystem (typically a
	// compute pilot's Mode I cluster): co-located reads are node-local.
	DataBackendHDFS = data.BackendHDFS
	// DataBackendMem pins replicas in allocation memory — the
	// Pilot-in-Memory tier.
	DataBackendMem = data.BackendMem
)

// The Pilot-Data sentinel errors, matchable with errors.Is like the
// compute sentinels in errors.go.
var (
	// ErrUnknownDataBackend: a DataPilotDescription named a backend
	// never registered through RegisterDataBackend.
	ErrUnknownDataBackend = data.ErrUnknownBackend
	// ErrNoDataPilots: staging found no data pilot able to hold a
	// replica (none added, or none with capacity).
	ErrNoDataPilots = data.ErrNoPilots
	// ErrDataUnavailable: a Data-Unit cannot be read — staging failed
	// or was canceled, or the unit was removed. Compute-Units whose
	// Inputs reference such a unit fail with this cause.
	ErrDataUnavailable = data.ErrUnavailable
	// ErrDataStoreFull: an ingest would overflow the store's capacity.
	ErrDataStoreFull = data.ErrStoreFull
)

// NewDataManager creates a Pilot-Data manager on the session, staging
// over the session's SAGA transfer facade:
//
//	dm := pilot.NewDataManager(session)
//	dp, err := dm.AddPilot(pilot.DataPilotDescription{
//		Backend: pilot.DataBackendHDFS, Label: "p0", HDFS: pl.HDFS(),
//	})
//	du, err := dm.Submit(p, pilot.DataUnitDescription{
//		Name: "/data/part-00", SizeBytes: 512 << 20, Affinity: "p0",
//	})
//	pl.AttachDataPilot(dp)
//	// ComputeUnitDescription{Inputs: []pilot.DataRef{{Unit: du}}, ...}
func NewDataManager(s *Session) *DataManager { return core.NewDataManager(s) }

// RegisterDataBackend adds a data backend under name, the key a
// DataPilotDescription selects it by — the Pilot-Data analogue of
// RegisterBackend and RegisterUnitScheduler.
// Volume-backed backends can provision through NewVolumeDataStore:
//
//	pilot.RegisterDataBackend("scratch", func() pilot.DataBackend { return scratchBackend{} })
//
// Registration fails on nil factories, empty names, and duplicates.
func RegisterDataBackend(name string, factory func() DataBackend) error {
	return data.RegisterBackend(name, factory)
}

// DataBackends lists the registered data-backend names, sorted. The
// built-ins ("hdfs", "lustre", "mem") are always present.
func DataBackends() []string { return data.Backends() }

// NewVolumeDataStore builds a DataStore over an arbitrary volume — the
// one-liner custom data backends provision from (see
// RegisterDataBackend). ft is the transfer facade handed to
// DataBackend.Provision; staging into the store runs over its pipelined
// copy.
func NewVolumeDataStore(ft *saga.FileTransfer, name, backend string, vol storage.Volume, capacityBytes int64) DataStore {
	return data.NewVolumeStore(ft, name, backend, vol, capacityBytes)
}
