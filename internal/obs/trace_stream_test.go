package obs_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/pilot"
)

// assertMatchesReference checks that the streaming exporter writes
// exactly the bytes the encoding/json reference writes for cells.
func assertMatchesReference(t *testing.T, cells []obs.Cell) {
	t.Helper()
	var got, want bytes.Buffer
	if err := obs.WriteChromeTraceCells(&got, cells); err != nil {
		t.Fatal(err)
	}
	if err := refWriteChromeTraceCells(&want, cells); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Fatalf("streamed trace differs from the reference at byte %d of %d/%d:\n got: %q\nwant: %q",
		i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
}

// recordSession runs a two-pilot workload on a simulated Stampede with
// a recorder attached and returns its event stream. With cancelEarly
// the second pilot is canceled while units are still queued on it, so
// the stream also carries rebinds and canceled units.
func recordSession(t *testing.T, seed int64, cancelEarly bool) []obs.Event {
	t.Helper()
	env, err := experiments.NewEnv(experiments.Stampede, 5, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rec := pilot.NewRecorder(env.Eng)
	env.Session.AttachRecorder(rec)
	env.Eng.Spawn("driver", func(p *sim.Proc) {
		pm := pilot.NewPilotManager(env.Session)
		var pls []*pilot.Pilot
		for i := 0; i < 2; i++ {
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: string(experiments.Stampede), Nodes: 2,
				Runtime: time.Hour, Mode: pilot.ModeHPC,
			})
			if err != nil {
				t.Error(err)
				return
			}
			pls = append(pls, pl)
		}
		um, err := pilot.NewUnitManager(env.Session, pilot.WithScheduler(pilot.SchedulerBackfill))
		if err != nil {
			t.Error(err)
			return
		}
		for _, pl := range pls {
			if err := um.AddPilot(pl); err != nil {
				t.Error(err)
				return
			}
		}
		descs := make([]pilot.ComputeUnitDescription, 60)
		for i := range descs {
			d := time.Duration(5+i%7) * time.Second
			descs[i] = pilot.ComputeUnitDescription{
				Cores: 1 + i%4,
				Body:  func(bp *sim.Proc, _ *pilot.UnitContext) { bp.Sleep(d) },
			}
			if i%3 != 0 {
				descs[i].Name = fmt.Sprintf("job-%02d", i)
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		if cancelEarly {
			pls[1].WaitState(p, pilot.PilotActive)
			p.Sleep(7 * time.Second)
			pls[1].Cancel()
		}
		um.WaitAll(p, units)
		for _, pl := range pls {
			pl.Cancel()
		}
	})
	env.Eng.Run()
	return rec.Events()
}

// TestChromeTraceMatchesReferenceOnSession: the streaming exporter
// renders recorded sessions, one per cell and all in one file, exactly
// as the encoding/json reference does.
func TestChromeTraceMatchesReferenceOnSession(t *testing.T) {
	plain := recordSession(t, 42, false)
	canceled := recordSession(t, 7, true)
	if pilot.DoneUnits(plain) != 60 {
		t.Fatalf("plain session: %d DONE units, want 60", pilot.DoneUnits(plain))
	}
	states := map[string]bool{}
	for _, ev := range canceled {
		if ev.Kind == obs.KindUnitState {
			states[ev.State] = true
		}
	}
	if !states["CANCELED"] && !states["FAILED"] {
		t.Fatalf("canceled-pilot session ended no unit early: states %v", states)
	}
	assertMatchesReference(t, []obs.Cell{{Events: plain}})
	assertMatchesReference(t, []obs.Cell{
		{Label: "plain", Events: plain},
		{Label: "canceled", Events: canceled},
	})
}

// TestChromeTraceMatchesReferenceOnEdgeCases: strings that need
// escaping (HTML-sensitive, control, non-ASCII, invalid UTF-8) in
// names, details and cell labels; timestamps below a microsecond and
// at the end of the Duration range; cached, unbound and never-finished
// units; instants with every and with no args; several cells, empty
// ones among them.
func TestChromeTraceMatchesReferenceOnEdgeCases(t *testing.T) {
	odd := []string{"a<b>&c", "x<y", "x>y", "x&y", "tab\tnl\nquote\"back\\", "ctl\x01\x1f\x7f", "ünïcødé ✓", "bad\xff\xfeutf8", "\u2028sep\u2029", ""}
	var events []obs.Event
	for i, s := range odd {
		u := fmt.Sprintf("u%d", i)
		events = append(events,
			obs.Event{Kind: obs.KindBind, Unit: u, Pilot: "p<1>", Policy: s, Detail: s, At: time.Duration(i)},
			obs.Event{Kind: obs.KindUnitState, Unit: u, Name: s, State: "AGENT_EXECUTING", Pilot: "p<1>", At: time.Duration(i + 1)},
			obs.Event{Kind: obs.KindUnitState, Unit: u, State: "DONE", At: time.Duration(999 + i)},
		)
	}
	events = append(events,
		// A unit executing twice keeps its first start; a second DONE
		// does not move its end. Its last name and pilot win.
		obs.Event{Kind: obs.KindUnitState, Unit: "again", Name: "first", State: "AGENT_EXECUTING", Pilot: "p1", At: time.Second},
		obs.Event{Kind: obs.KindUnitState, Unit: "again", Name: "second", State: "AGENT_EXECUTING", Pilot: "p2", At: 2 * time.Second},
		obs.Event{Kind: obs.KindUnitState, Unit: "again", State: "DONE", Pilot: "p2", At: 3 * time.Second},
		obs.Event{Kind: obs.KindUnitState, Unit: "again", State: "DONE", Pilot: "p2", At: 4 * time.Second},
		// Cached: a hit, and a coalesced waiter, neither ever bound.
		obs.Event{Kind: obs.KindCache, Op: "hit", Unit: "hit", At: 5 * time.Second},
		obs.Event{Kind: obs.KindUnitState, Unit: "hit", State: "DONE", At: 5 * time.Second},
		obs.Event{Kind: obs.KindCache, Op: "coalesce", Unit: "waiter", Pilot: "p2", At: 6 * time.Second},
		obs.Event{Kind: obs.KindUnitState, Unit: "waiter", State: "DONE", Pilot: "p2", At: 6 * time.Second},
		// Instants with no args and with every arg.
		obs.Event{Kind: obs.KindCache, Op: "complete", At: 7 * time.Second},
		obs.Event{Kind: obs.KindStoreFail, Pilot: "disk&tape", At: 8 * time.Second},
		obs.Event{Kind: obs.KindAutoscale, Pilot: "p2", Policy: "queue-depth", Applied: -3, Detail: "shrink", Unit: "u1", At: 9 * time.Second},
		obs.Event{Kind: obs.KindAutoscale, Applied: 2, At: 10 * time.Second},
		// Timestamps at both ends of the Duration range.
		obs.Event{Kind: obs.KindUnitState, Unit: "far", State: "AGENT_EXECUTING", Pilot: "p3", At: 1},
		obs.Event{Kind: obs.KindUnitState, Unit: "far", State: "DONE", Pilot: "p3", At: math.MaxInt64},
		obs.Event{Kind: obs.KindBind, Unit: "far", Pilot: "p3", At: math.MaxInt64 - 1},
		// Never finished: no span, but its bind is an instant.
		obs.Event{Kind: obs.KindBind, Unit: "stuck", Pilot: "p4", At: time.Millisecond},
		obs.Event{Kind: obs.KindUnitState, Unit: "stuck", State: "AGENT_EXECUTING", Pilot: "p4", At: time.Millisecond},
		// Kinds the exporter ignores.
		obs.Event{Kind: obs.KindTrace, Detail: "engine line", At: time.Second},
		obs.Event{Kind: obs.KindPilotState, Pilot: "p9", State: "PMGR_ACTIVE", At: time.Second},
	)
	// Overlapping spans on one pilot stack on separate lanes, and a
	// lane is reused once free.
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("lane%d", i)
		start := time.Duration(i/2) * 10 * time.Second
		events = append(events,
			obs.Event{Kind: obs.KindUnitState, Unit: u, State: "AGENT_EXECUTING", Pilot: "p5", At: start},
			obs.Event{Kind: obs.KindUnitState, Unit: u, State: "DONE", Pilot: "p5", At: start + 15*time.Second},
		)
	}

	assertMatchesReference(t, nil)
	assertMatchesReference(t, []obs.Cell{})
	assertMatchesReference(t, []obs.Cell{{}})
	assertMatchesReference(t, []obs.Cell{{Events: events}})
	cells := []obs.Cell{{Label: "empty"}}
	for _, label := range odd {
		cells = append(cells, obs.Cell{Label: label, Events: events})
	}
	cells = append(cells, obs.Cell{Label: "tail"})
	assertMatchesReference(t, cells)
}
