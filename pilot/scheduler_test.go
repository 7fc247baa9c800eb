package pilot_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/pilot"
)

// firstPilotScheduler is the toy fifth policy of the acceptance
// criteria: registered through the public API, it always binds to the
// first live candidate — no internal/core changes required.
type firstPilotScheduler struct{}

func (firstPilotScheduler) Name() string { return "toy-first" }

func (firstPilotScheduler) Pick(_ *sim.Proc, _ *pilot.Unit, cands []*pilot.PilotView) (*pilot.Pilot, error) {
	return cands[0].Pilot, nil
}

func registerToyPolicy(t *testing.T) {
	t.Helper()
	err := pilot.RegisterUnitScheduler("toy-first", func() pilot.UnitScheduler {
		return firstPilotScheduler{}
	})
	// Another test in this binary may have registered it already; only a
	// genuinely new failure mode is fatal.
	if err != nil && !slices.Contains(pilot.UnitSchedulers(), "toy-first") {
		t.Fatal(err)
	}
}

func TestRegisterUnitSchedulerToyPolicy(t *testing.T) {
	registerToyPolicy(t)
	if !slices.Contains(pilot.UnitSchedulers(), "toy-first") {
		t.Fatalf("UnitSchedulers() = %v, missing toy-first", pilot.UnitSchedulers())
	}
	// Registry hygiene through the public API.
	if err := pilot.RegisterUnitScheduler("toy-first", func() pilot.UnitScheduler { return firstPilotScheduler{} }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := pilot.RegisterUnitScheduler("", func() pilot.UnitScheduler { return firstPilotScheduler{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := pilot.RegisterUnitScheduler("nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}

	// The toy policy drives a real workload: every unit lands on the
	// first pilot added, even with a second idle pilot available.
	e := newTestEnv(t, 4)
	counts := make(map[string]int)
	var firstID string
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		var pilots []*pilot.Pilot
		for i := 0; i < 2; i++ {
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: time.Hour,
			})
			if err != nil {
				t.Error(err)
				return
			}
			pilots = append(pilots, pl)
		}
		firstID = pilots[0].ID
		um := newUM(t, e.session, pilot.WithScheduler("toy-first"))
		for _, pl := range pilots {
			pl.WaitState(p, pilot.PilotActive)
			um.AddPilot(pl)
		}
		if got := um.Scheduler(); got != "toy-first" {
			t.Errorf("um.Scheduler() = %q", got)
		}
		var descs []pilot.ComputeUnitDescription
		for i := 0; i < 6; i++ {
			descs = append(descs, pilot.ComputeUnitDescription{
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) { bp.Sleep(time.Second) },
			})
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				t.Errorf("unit %s = %v (%v)", u.ID, u.State(), u.Err)
			}
			counts[u.Pilot.ID]++
		}
		for _, pl := range pilots {
			pl.Cancel()
		}
	})
	if len(counts) != 1 || counts[firstID] != 6 {
		t.Fatalf("toy-first spread units as %v, want all 6 on %s", counts, firstID)
	}
}

// TestWithSchedulerUnknownName: selecting an unregistered policy fails
// with the matchable sentinel, through the public API.
func TestWithSchedulerUnknownName(t *testing.T) {
	e := newTestEnv(t, 1)
	defer e.eng.Close()
	if _, err := pilot.NewUnitManager(e.session, pilot.WithScheduler("no-such-policy")); !errors.Is(err, pilot.ErrUnknownScheduler) {
		t.Fatalf("err = %v, want pilot.ErrUnknownScheduler", err)
	}
}

// TestBuiltinSchedulersListed pins the public registry contents.
func TestBuiltinSchedulersListed(t *testing.T) {
	names := pilot.UnitSchedulers()
	for _, want := range []string{
		pilot.SchedulerRoundRobin, pilot.SchedulerLeastLoaded,
		pilot.SchedulerBackfill, pilot.SchedulerLocality,
	} {
		if !slices.Contains(names, want) {
			t.Errorf("UnitSchedulers() = %v, missing %q", names, want)
		}
	}
}

// TestSubmitNoPilotsSentinel: the public API surfaces ErrNoPilots.
func TestSubmitNoPilotsSentinel(t *testing.T) {
	e := newTestEnv(t, 1)
	um := newUM(t, e.session)
	e.run(t, func(p *sim.Proc) {
		if _, err := um.Submit(p, []pilot.ComputeUnitDescription{{}}); !errors.Is(err, pilot.ErrNoPilots) {
			t.Errorf("Submit with no pilots = %v, want pilot.ErrNoPilots", err)
		}
	})
}
