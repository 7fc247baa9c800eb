package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sim"
)

// twinPrefixes open the free-form lines that would restate a typed
// event: pilot, unit and Data-Unit transitions, data-pilot failures and
// autoscaler resize errors each have a typed record of their own.
var twinPrefixes = []string{"pilot ", "unit ", "data unit ", "data pilot ", "autoscaler "}

// TestTraceLinesRestateNoTypedFact guards the one-record-per-fact rule:
// a recorded session that brings a pilot up, resizes and cancels it,
// takes a result-cache hit and a coalesce, caches, evicts and
// re-replicates Data-Unit replicas, fails and cancels Data-Units and
// kills a data pilot produces the typed event for every one of those
// facts, and no engine trace line restating any of them.
func TestTraceLinesRestateNoTypedFact(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	rec := obs.NewRecorder(e.eng)
	e.session.AttachRecorder(rec)
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		if !pl.WaitState(p, PilotActive) {
			t.Errorf("pilot ended %v", pl.State())
			return
		}
		if err := pl.Resize(p, 1); err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		if err := pl.Resize(p, -1); err != nil {
			t.Errorf("shrink: %v", err)
			return
		}

		dm := NewDataManager(e.session)
		memDataPilot(t, dm, pl, "attached", 1<<30)
		home := memDataPilot(t, dm, nil, "home", 1<<30)
		memDataPilot(t, dm, nil, "spare", 1<<30)
		small := memDataPilot(t, dm, nil, "small", 24<<20)
		submit := func(name string, size int64, replication int) *data.Unit {
			du, err := dm.Submit(p, data.UnitDescription{
				Name: name, SizeBytes: size, Replication: replication, Affinity: "home",
			})
			if err != nil {
				t.Fatal(err)
			}
			return du
		}

		// A leader and a coalesced duplicate, then a hit.
		um := newUM(t, e.session, WithResultCache(1<<30))
		um.AddPilot(pl)
		out, err := dm.Declare(data.UnitDescription{Name: "/o/res", SizeBytes: 4 << 20, Affinity: "home"})
		if err != nil {
			t.Fatal(err)
		}
		d := ComputeUnitDescription{
			Executable: "/bin/derive",
			Inputs:     []DataRef{{Unit: submit("/d/src", 8<<20, 1)}},
			Outputs:    []DataRef{{Unit: out}},
			Body:       func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(5 * time.Second) },
		}
		for _, batch := range [][]ComputeUnitDescription{{d, d}, {d}} {
			units, err := um.Submit(p, batch)
			if err != nil {
				t.Fatal(err)
			}
			um.WaitAll(p, units)
		}

		// Two 16 MB copies cannot share the 24 MB store: caching the
		// second evicts the first.
		lost := submit("/d/lost", 16<<20, 1)
		kept := submit("/d/kept", 16<<20, 1)
		if !dm.CacheReplica(p, lost, small) || !dm.CacheReplica(p, kept, small) {
			t.Fatal("stage-in cache refused a copy")
		}
		// Killing home re-replicates the doubly placed unit, promotes
		// kept's cached copy and fails lost, whose last copy dies.
		submit("/d/twice", 8<<20, 2)
		if err := dm.FailPilot(p, home); err != nil {
			t.Fatal(err)
		}
		never, err := dm.Declare(data.UnitDescription{Name: "/d/never", SizeBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		dm.Cancel(never)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()

	seen := make(map[string]bool)
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindPilotState, obs.KindDataState:
			seen[ev.Kind.String()+" "+ev.State] = true
		case obs.KindCache, obs.KindReplica:
			seen[ev.Kind.String()+" "+ev.Op] = true
		case obs.KindStoreFail:
			seen[ev.Kind.String()] = true
		case obs.KindTrace:
			seen[ev.Kind.String()] = true
			for _, prefix := range twinPrefixes {
				if strings.HasPrefix(ev.Detail, prefix) {
					t.Errorf("trace line restates a typed fact: %q", ev.Detail)
				}
			}
		}
	}
	for _, want := range []string{
		"pilot-state " + PilotActive.String(), "pilot-state " + PilotResizing.String(),
		"pilot-state " + PilotCanceled.String(),
		"cache hit", "cache coalesce",
		"replica cache", "replica evict", "replica re-replicate", "replica promote",
		"data-state " + data.StateFailed.String(), "data-state " + data.StateCanceled.String(),
		obs.KindStoreFail.String(), obs.KindTrace.String(),
	} {
		if !seen[want] {
			t.Errorf("session recorded no %q event", want)
		}
	}
}
