package pilot

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// RegisterBackend adds an execution backend to the registry under
// name (instances the factory constructs should report the same
// string from Name()). The factory is invoked once per submitted
// pilot, so implementations may keep per-pilot state in their
// receiver. A PilotDescription selects the backend by setting Mode to
// the registered name:
//
//	pilot.RegisterBackend("dask", func() pilot.Backend { return &daskBackend{} })
//	pm.Submit(p, pilot.PilotDescription{Resource: "wrangler", Mode: "dask", ...})
//
// Registration fails on nil factories, empty names, and duplicates.
func RegisterBackend(name string, factory func() Backend) error {
	return core.RegisterBackend(name, factory)
}

// Backends lists the registered backend names, sorted. The built-ins
// ("hpc", "yarn", "spark") are always present.
func Backends() []string { return core.Backends() }

// NewPoolScheduler builds a single-pool core scheduler — the Spark
// backend's model, and the simplest choice for custom backends whose
// runtime does its own placement.
func NewPoolScheduler(e *sim.Engine, cores int) AgentScheduler {
	return core.NewPoolScheduler(e, cores)
}
