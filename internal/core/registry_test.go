package core

import (
	"testing"

	"repro/internal/registry/registrytest"
	"repro/internal/sim"
)

// confScheduler/confPolicy are inert placeholders the conformance suite
// registers under temporary names.
type confScheduler struct{}

func (confScheduler) Name() string { return "conformance-sched" }
func (confScheduler) Pick(*sim.Proc, *Unit, []*PilotView) (*Pilot, error) {
	return nil, nil
}

type confPolicy struct{}

func (confPolicy) Name() string                  { return "conformance-policy" }
func (confPolicy) Decide(*AutoscaleSnapshot) int { return 0 }

// TestRegistryConformance runs the shared registry contract over the
// three core registries — execution backends, unit schedulers,
// autoscale policies — so the generic migration cannot regress any of
// them: built-ins stay registered, names stay sorted, duplicate/empty/
// nil registrations stay rejected, and unknown names keep matching the
// pre-existing sentinels through errors.Is.
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
	t.Run("autoscale-policies", func(t *testing.T) {
		registrytest.Conformance(t, autoscalePolicies, ErrUnknownAutoscalePolicy,
			[]string{AutoscaleQueueDepth, AutoscaleUtilization, AutoscaleDeadline, AutoscaleDataAware},
			"conformance-policy", func() AutoscalePolicy { return confPolicy{} })
	})
}
