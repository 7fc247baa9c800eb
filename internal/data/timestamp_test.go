package data

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestUnitTimestamp: Timestamp reports a Data-Unit state as reached only
// once the unit entered it: before staging, a replicated unit has not
// reached StateDone, a unit no store can hold fails without ever
// reaching StateStagingIn, and out-of-range states are never reached.
// The failed unit's name is free for a new declaration.
func TestUnitTimestamp(t *testing.T) {
	e, _, dm := newTestManager(t)
	if _, err := dm.AddPilot(PilotDescription{
		Backend: BackendMem, Label: "small", CapacityBytes: 4 << 20, MemBytesPerSec: 8e9,
	}); err != nil {
		t.Fatal(err)
	}
	fits, err := dm.Declare(UnitDescription{Name: "/d/fits", SizeBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tooBig, err := dm.Declare(UnitDescription{Name: "/d/big", SizeBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, reached := fits.Timestamp(StateStagingIn); reached {
		t.Error("StateStagingIn reported reached before Stage")
	}
	if at, reached := fits.Timestamp(StateNew); !reached || at != 0 {
		t.Errorf("StateNew = %v, %v; want 0, true", at, reached)
	}
	var stageErr error
	e.Spawn("driver", func(p *sim.Proc) {
		if err := dm.Stage(p, fits); err != nil {
			t.Error(err)
		}
		stageErr = dm.Stage(p, tooBig)
	})
	e.Run()
	if !errors.Is(stageErr, ErrNoPilots) || tooBig.State() != StateFailed {
		t.Fatalf("oversized unit: %v, state %v; want ErrNoPilots and FAILED", stageErr, tooBig.State())
	}
	for _, c := range []struct {
		name string
		du   *Unit
		st   UnitState
		want bool
	}{
		{"replicated unit: StateStagingIn", fits, StateStagingIn, true},
		{"replicated unit: StateReplicated", fits, StateReplicated, true},
		{"replicated unit: StateDone", fits, StateDone, false},
		{"failed unit: StateStagingIn (skipped)", tooBig, StateStagingIn, false},
		{"failed unit: StateFailed", tooBig, StateFailed, true},
		{"UnitState(-1)", fits, -1, false},
		{"UnitState(99)", fits, 99, false},
	} {
		at, reached := c.du.Timestamp(c.st)
		if reached != c.want {
			t.Errorf("%s: reached = %v, want %v", c.name, reached, c.want)
		}
		if reached && at != c.du.Timestamps[c.st] {
			t.Errorf("%s: at %v, Timestamps say %v", c.name, at, c.du.Timestamps[c.st])
		}
	}
	if _, err := dm.Declare(UnitDescription{Name: "/d/big", SizeBytes: 1 << 20}); err != nil {
		t.Errorf("name of the failed unit still taken: %v", err)
	}
}
