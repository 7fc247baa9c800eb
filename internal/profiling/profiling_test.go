package profiling

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/pilot"
)

// runWorkload drives a small pilot workload under a flight recorder and
// returns its units, its pilot and the recorded event stream — the one
// source every decomposition here reads.
func runWorkload(t *testing.T, mode pilot.PilotMode, n int) ([]*pilot.Unit, *pilot.Pilot, []pilot.TraceEvent) {
	t.Helper()
	env, err := experiments.NewEnv(experiments.Wrangler, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rec := pilot.NewRecorder(env.Eng)
	env.Session.AttachRecorder(rec)
	var units []*pilot.Unit
	var pl *pilot.Pilot
	env.Eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(env.Session)
		pl, err = pm.Submit(p, pilot.PilotDescription{
			Resource: "wrangler", Nodes: 2, Runtime: 2 * time.Hour, Mode: mode,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot %v", pl.State())
			return
		}
		um, err := pilot.NewUnitManager(env.Session)
		if err != nil {
			t.Error(err)
			return
		}
		um.AddPilot(pl)
		descs := make([]pilot.ComputeUnitDescription, n)
		for i := range descs {
			descs[i] = pilot.ComputeUnitDescription{
				Cores:              1,
				InputStagingBytes:  8 << 20,
				OutputStagingBytes: 4 << 20,
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					ctx.Node.Compute(bp, 30)
				},
			}
		}
		units, err = um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		pl.Cancel()
	})
	env.Eng.Run()
	return units, pl, rec.Events()
}

func TestUnitBreakdownSumsToTTC(t *testing.T) {
	units, _, events := runWorkload(t, pilot.ModeHPC, 4)
	tl := timelines(events)
	for _, u := range units {
		b, err := breakdownFromEntries(u.ID, tl[u.ID])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := b.Total(), u.TimeToCompletion(); got != want {
			t.Fatalf("breakdown total %v != TTC %v", got, want)
		}
		if b[PhaseExecuting] < 20*time.Second {
			t.Fatalf("executing phase %v, want ≈30s of compute", b[PhaseExecuting])
		}
	}
}

// TestBreakdownRejectsUnfinishedUnit: a unit still NEW — absent from the
// stream, or with nothing past NEW in it — is refused, and a stream
// holding only such a unit profiles nothing.
func TestBreakdownRejectsUnfinishedUnit(t *testing.T) {
	if _, err := breakdownFromEntries("u1", nil); err == nil {
		t.Fatal("breakdown of a unit absent from the stream accepted")
	}
	if _, err := breakdownFromEntries("u1", map[string]time.Duration{pilot.UnitNew.String(): 0}); err == nil {
		t.Fatal("breakdown of NEW unit accepted")
	}
	prof, skipped := ProfileFromEvents([]pilot.TraceEvent{
		{Kind: pilot.EventUnitState, Unit: "u1", State: pilot.UnitNew.String()},
	})
	if skipped != 1 || prof.Units != 0 {
		t.Fatalf("ProfileFromEvents(NEW) = %d units, %d skipped; want 0/1", prof.Units, skipped)
	}
}

func TestProfileAggregatesAndRenders(t *testing.T) {
	_, _, events := runWorkload(t, pilot.ModeYARN, 6)
	prof, skipped := ProfileFromEvents(events)
	if skipped != 0 {
		t.Fatalf("%d units skipped", skipped)
	}
	if prof.Units != 6 {
		t.Fatalf("profile covers %d units, want 6", prof.Units)
	}
	// Under YARN the launching cost is folded into staging→executing;
	// the executing mean must still be ≈30/1.35 s of scaled compute.
	mean := prof.Phases[PhaseExecuting].Mean()
	if mean < 15*time.Second || mean > 40*time.Second {
		t.Fatalf("executing mean %v out of range", mean)
	}
	var buf bytes.Buffer
	prof.Write(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("executing")) {
		t.Fatalf("rendering missing phases:\n%s", buf.String())
	}
}

func TestConcurrencyAndUtilization(t *testing.T) {
	_, _, events := runWorkload(t, pilot.ModeHPC, 8)
	spans := SpansFromEvents(events)
	if len(spans) != 8 {
		t.Fatalf("%d spans, want 8", len(spans))
	}
	peak := MaxConcurrency(spans)
	// 2 Wrangler nodes × 48 cores, single-core units: all 8 overlap.
	if peak != 8 {
		t.Fatalf("peak concurrency = %d, want 8", peak)
	}
	util := Utilization(spans, 8)
	if util < 0.5 || util > 1.0 {
		t.Fatalf("utilization = %.2f, want (0.5, 1.0]", util)
	}
	if Utilization(nil, 8) != 0 || Utilization(spans, 0) != 0 {
		t.Fatal("degenerate utilization should be 0")
	}
}

func TestMaxConcurrencySynthetic(t *testing.T) {
	spans := []Span{
		{0, 10 * time.Second},
		{5 * time.Second, 15 * time.Second},
		{10 * time.Second, 20 * time.Second}, // starts as first ends: no overlap with it
	}
	if got := MaxConcurrency(spans); got != 2 {
		t.Fatalf("peak = %d, want 2 (end-before-start tie rule)", got)
	}
	if MaxConcurrency(nil) != 0 {
		t.Fatal("empty spans should have zero concurrency")
	}
}

// sec shortens synthetic timeline literals.
func sec(s int) time.Duration { return time.Duration(s) * time.Second }

// mustBreakdown decomposes a synthetic timeline that reaches DONE.
func mustBreakdown(t *testing.T, entry map[string]time.Duration) Breakdown {
	t.Helper()
	b, err := breakdownFromEntries("u1", entry)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBreakdownSkipsAbsentStagingStates: a unit that never entered the
// staging states (no inputs to pull, instant stage-out) still decomposes
// fully — the milestone walk hands each absent state's span to the
// preceding phase instead of dropping it.
func TestBreakdownSkipsAbsentStagingStates(t *testing.T) {
	b := mustBreakdown(t, map[string]time.Duration{
		pilot.UnitSchedulingUM.String():    sec(0),
		pilot.UnitPendingAgent.String():    sec(2),
		pilot.UnitSchedulingAgent.String(): sec(3),
		pilot.UnitExecuting.String():       sec(5),  // no AGENT_STAGING_INPUT
		pilot.UnitDone.String():            sec(35), // no AGENT_STAGING_OUTPUT
	})
	want := Breakdown{
		PhaseHeld:             0,
		PhaseUnitManager:      sec(3),
		PhaseScheduling:       sec(2),
		PhaseStagingAndLaunch: 0,
		PhaseExecuting:        sec(30),
		PhaseStagingOut:       0,
	}
	for _, ph := range Phases {
		if b[ph] != want[ph] {
			t.Errorf("%s = %v, want %v", ph, b[ph], want[ph])
		}
	}
	if b.Total() != sec(35) {
		t.Errorf("total = %v, want the full 35s span", b.Total())
	}
}

// TestBreakdownAttributesHoldTime: time parked in the Unit-Manager hold
// states lands in PhaseHeld — for an input hold (UMGR_PENDING_INPUT)
// and for a coalesced waiter completed from the result cache
// (UMGR_PENDING_RESULT), whose only other milestones are UMGR_SCHEDULING
// and DONE.
func TestBreakdownAttributesHoldTime(t *testing.T) {
	held := mustBreakdown(t, map[string]time.Duration{
		pilot.UnitPendingInput.String():    sec(0),
		pilot.UnitSchedulingUM.String():    sec(10),
		pilot.UnitSchedulingAgent.String(): sec(11),
		pilot.UnitStagingInput.String():    sec(12),
		pilot.UnitExecuting.String():       sec(13),
		pilot.UnitStagingOutput.String():   sec(43),
		pilot.UnitDone.String():            sec(44),
	})
	if held[PhaseHeld] != sec(10) {
		t.Errorf("input hold: PhaseHeld = %v, want 10s", held[PhaseHeld])
	}
	if held.Total() != sec(44) {
		t.Errorf("input hold: total = %v, want 44s (hold attributed, not dropped)", held.Total())
	}

	waiter := mustBreakdown(t, map[string]time.Duration{
		pilot.UnitPendingResult.String(): sec(5),
		pilot.UnitSchedulingUM.String():  sec(20),
		pilot.UnitDone.String():          sec(21),
	})
	if waiter[PhaseHeld] != sec(15) {
		t.Errorf("coalesced waiter: PhaseHeld = %v, want 15s", waiter[PhaseHeld])
	}
	if waiter[PhaseUnitManager] != sec(1) {
		t.Errorf("coalesced waiter: PhaseUnitManager = %v, want 1s (cache completion)", waiter[PhaseUnitManager])
	}
	if waiter[PhaseExecuting] != 0 {
		t.Errorf("coalesced waiter never executed, PhaseExecuting = %v", waiter[PhaseExecuting])
	}
}

// TestBreakdownFailedUnit: a unit that really failed (its only pilot
// canceled before it could bind) is refused by the breakdown and
// skipped by ProfileFromEvents rather than decomposed.
func TestBreakdownFailedUnit(t *testing.T) {
	env, err := experiments.NewEnv(experiments.Wrangler, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rec := pilot.NewRecorder(env.Eng)
	env.Session.AttachRecorder(rec)
	var units []*pilot.Unit
	env.Eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(env.Session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "wrangler", Nodes: 1, Runtime: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		pl.WaitState(p, pilot.PilotActive)
		um, err := pilot.NewUnitManager(env.Session)
		if err != nil {
			t.Error(err)
			return
		}
		um.AddPilot(pl)
		pl.Cancel()
		pl.WaitState(p, pilot.PilotCanceled)
		units, err = um.Submit(p, []pilot.ComputeUnitDescription{{Cores: 1}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
	})
	env.Eng.Run()
	if len(units) != 1 || units[0].State() != pilot.UnitFailed {
		t.Fatalf("expected one FAILED unit, got %v", units)
	}
	events := rec.Events()
	entry := timelines(events)[units[0].ID]
	if _, ok := entry[pilot.UnitFailed.String()]; !ok {
		t.Fatalf("FAILED missing from the unit's recorded timeline %v", entry)
	}
	if _, err := breakdownFromEntries(units[0].ID, entry); err == nil {
		t.Fatal("breakdown accepted a FAILED unit")
	}
	prof, skipped := ProfileFromEvents(events)
	if skipped != 1 || prof.Units != 0 {
		t.Fatalf("ProfileFromEvents(failed) = %d units, %d skipped; want 0/1", prof.Units, skipped)
	}
}

// TestBreakdownFromStatesRequiresDone: a recorded timeline that ends in
// FAILED is refused, whatever milestones precede it.
func TestBreakdownFromStatesRequiresDone(t *testing.T) {
	_, err := breakdownFromEntries("u1", map[string]time.Duration{
		pilot.UnitSchedulingUM.String(): sec(0),
		pilot.UnitFailed.String():       sec(3),
	})
	if err == nil {
		t.Fatal("breakdown accepted a stream that never reached DONE")
	}
}

// TestEventStreamMatchesTimestamps: the recorded stream holds every state
// a unit entered, at the time its Timestamps say — every state but NEW,
// which is stamped at submission and not recorded — so profiling from
// the stream loses nothing the units knew.
func TestEventStreamMatchesTimestamps(t *testing.T) {
	units, _, events := runWorkload(t, pilot.ModeHPC, 3)
	tl := timelines(events)
	for _, u := range units {
		want := make(map[string]time.Duration)
		for st := pilot.UnitNew + 1; st <= pilot.UnitFailed; st++ {
			if at, ok := u.Timestamp(st); ok {
				want[st.String()] = at
			}
		}
		if !reflect.DeepEqual(tl[u.ID], want) {
			t.Errorf("unit %s: stream says %v, Timestamps say %v", u.ID, tl[u.ID], want)
		}
	}
	p, skipped := ProfileFromEvents(events)
	if skipped != 0 || p.Units != len(units) {
		t.Fatalf("ProfileFromEvents = %d units, %d skipped; want %d/0", p.Units, skipped, len(units))
	}
}

func TestPilotProfile(t *testing.T) {
	_, pl, _ := runWorkload(t, pilot.ModeYARN, 2)
	ov := PilotProfile(pl)
	if ov.AgentStartup <= 0 || ov.QueueWait <= 0 {
		t.Fatalf("overheads not populated: %+v", ov)
	}
	if ov.HadoopSpawn <= 0 {
		t.Fatalf("Mode I pilot should report Hadoop spawn time: %+v", ov)
	}
	if ov.HadoopSpawn >= ov.AgentStartup {
		t.Fatalf("spawn (%v) cannot exceed total startup (%v)", ov.HadoopSpawn, ov.AgentStartup)
	}
}
