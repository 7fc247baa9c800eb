package core

import (
	"testing"

	"repro/internal/registry/registrytest"
	"repro/internal/sim"
)

// confScheduler is an inert placeholder the conformance suite registers
// under a temporary name.
type confScheduler struct{}

func (confScheduler) Name() string { return "conformance-sched" }
func (confScheduler) Pick(*sim.Proc, *Unit, []*PilotView) (*Pilot, error) {
	return nil, nil
}

// TestRegistryConformance runs the shared registry contract over the
// two core registries — execution backends and unit schedulers — so the
// generic migration cannot regress either of them: built-ins stay
// registered, names stay sorted, duplicate/empty/nil registrations stay
// rejected, and unknown names keep matching the pre-existing sentinels
// through errors.Is.
func TestRegistryConformance(t *testing.T) {
	t.Run("backends", func(t *testing.T) {
		registrytest.Conformance(t, backends, ErrUnknownBackend,
			[]string{string(ModeHPC), string(ModeYARN), string(ModeSpark)},
			"conformance-backend", func() Backend { return &hpcBackend{} })
	})
	t.Run("unit-schedulers", func(t *testing.T) {
		registrytest.Conformance(t, unitSchedulers, ErrUnknownScheduler,
			[]string{SchedulerRoundRobin, SchedulerLeastLoaded, SchedulerBackfill,
				SchedulerLocality, SchedulerCoLocate},
			"conformance-sched", func() UnitScheduler { return confScheduler{} })
	})
}
