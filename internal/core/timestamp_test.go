package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestUnitAndPilotTimestamp: Timestamp reports a state as reached only
// when the entity entered it — not before, not for a state a failure
// path skipped, not for an out-of-range state — and a pilot resized
// twice keeps its first PilotActive stamp (the re-announce after a
// resize does not restamp it) and its latest PilotResizing stamp.
func TestUnitAndPilotTimestamp(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	var ok, oversize *Unit
	var pl, queued *Pilot
	var active, resized sim.Duration
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl = submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		if _, reached := pl.Timestamp(PilotActive); reached {
			t.Error("PilotActive reported reached right after Submit")
		}
		if !pl.WaitState(p, PilotActive) {
			t.Fatalf("pilot ended %v", pl.State())
		}
		active = p.Now()
		for _, delta := range []int{1, -1} {
			p.Sleep(time.Minute)
			resized = p.Now()
			if err := pl.Resize(p, delta); err != nil {
				t.Fatalf("resize %+d: %v", delta, err)
			}
		}
		// Needs the whole machine: still queued when it is canceled.
		queued = submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 4, Runtime: time.Hour, Mode: ModeHPC,
		})
		queued.Cancel()

		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, err := um.Submit(p, []ComputeUnitDescription{
			{Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) }},
			{Cores: 64}, // more than the pilot holds: fails unexecuted
		})
		if err != nil {
			t.Fatal(err)
		}
		ok, oversize = units[0], units[1]
		if _, reached := ok.Timestamp(UnitDone); reached {
			t.Error("UnitDone reported reached before the unit ran")
		}
		um.WaitAll(p, units)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()

	if ok.State() != UnitDone || oversize.State() != UnitFailed {
		t.Fatalf("units ended %v and %v, want DONE and FAILED", ok.State(), oversize.State())
	}
	for _, c := range []struct {
		name          string
		reached, want bool
	}{
		{"done unit: UnitExecuting", get(ok.Timestamp(UnitExecuting)), true},
		{"done unit: UnitDone", get(ok.Timestamp(UnitDone)), true},
		{"done unit: UnitFailed", get(ok.Timestamp(UnitFailed)), false},
		{"done unit: UnitPendingInput", get(ok.Timestamp(UnitPendingInput)), false},
		{"failed unit: UnitExecuting (skipped)", get(oversize.Timestamp(UnitExecuting)), false},
		{"failed unit: UnitFailed", get(oversize.Timestamp(UnitFailed)), true},
		{"UnitState(-1)", get(ok.Timestamp(-1)), false},
		{"UnitState(99)", get(ok.Timestamp(99)), false},
		{"canceled pilot: PilotActive (skipped)", get(queued.Timestamp(PilotActive)), false},
		{"canceled pilot: PilotCanceled", get(queued.Timestamp(PilotCanceled)), true},
		{"resized pilot: PilotFailed", get(pl.Timestamp(PilotFailed)), false},
		{"PilotState(99)", get(pl.Timestamp(99)), false},
	} {
		if c.reached != c.want {
			t.Errorf("%s: reached = %v, want %v", c.name, c.reached, c.want)
		}
	}
	if at, _ := ok.Timestamp(UnitDone); at != ok.Timestamps[UnitDone] || at <= ok.Timestamps[UnitExecuting] {
		t.Errorf("UnitDone stamp %v, Timestamps say %v after executing at %v",
			at, ok.Timestamps[UnitDone], ok.Timestamps[UnitExecuting])
	}
	if at, _ := pl.Timestamp(PilotActive); at != active {
		t.Errorf("PilotActive stamp %v after two resizes, want the first entry %v", at, active)
	}
	if at, _ := pl.Timestamp(PilotResizing); at != resized {
		t.Errorf("PilotResizing stamp %v, want the latest entry %v", at, resized)
	}
}

// get drops a Timestamp's time, keeping whether the state was reached.
func get(_ sim.Duration, reached bool) bool { return reached }
