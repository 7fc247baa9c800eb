package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestParkPopsScaleWithOffers pins the bind pass's cost on a full
// cluster: a large gated backlog whose class no pilot can admit, and a
// trickle of fresh arrivals, each submitted on its own. Every arrival's
// pass must pop only what it offers, not the backlog ranked above it,
// so park pops stay O(offers) instead of O(arrivals × backlog).
func TestParkPopsScaleWithOffers(t *testing.T) {
	const backlog, arrivals = 200, 40
	e := newEnv(t, 1, fastProfile())
	var um *UnitManager
	var all []*Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: 24 * time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um = newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(pl)
		submit := func(n, cores int, d time.Duration) bool {
			descs := make([]ComputeUnitDescription, n)
			for i := range descs {
				descs[i] = ComputeUnitDescription{Cores: cores,
					Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(d) }}
			}
			units, err := um.Submit(p, descs)
			if err != nil {
				t.Error(err)
				return false
			}
			all = append(all, units...)
			return true
		}
		// Fill all 8 cores, then park a backlog of 4-core units behind
		// them: ranked first among equal priorities, never admissible
		// until the blockers finish.
		if !submit(8, 1, time.Hour) || !submit(backlog, 4, time.Second) {
			return
		}
		for i := 0; i < arrivals; i++ {
			p.Sleep(10 * time.Second)
			if !submit(1, 1, time.Second) {
				return
			}
		}
		um.WaitAll(p, all)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	for _, u := range all {
		if u.State() != UnitDone {
			t.Fatalf("unit %s ended %v (%v)", u.ID, u.State(), u.Err)
		}
	}
	_, offered := um.BindPassStats()
	pops := um.park.pops
	t.Logf("%d units: %d offers, %d park pops", len(all), offered, pops)
	if pops > 2*offered {
		t.Fatalf("%d park pops for %d offers: the pass pops inadmissible backlog (want at most 2 per offer)", pops, offered)
	}
}

// TestParkIndexMatchesReference drives the park index through seeded
// random sequences of push, insert, setAside, beginBatch, endBatch and
// popBest with random admissibility and stale units, and checks each
// pop and every aggregate — the hidden batch remainder included —
// against a brute-force reference: the admissible entries ordered by
// (priority desc, seq asc), hidden while a batch is open if stamped
// before it.
func TestParkIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkParkIndex(t, seed) })
	}
}

func checkParkIndex(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var x parkIndex
	// heaped and aside are the reference contents; popped holds entries
	// the "pass" popped and has not yet put back.
	var heaped, aside, popped []parkEntry
	stale := make(map[*Unit]bool)
	var pops int64
	// next is the reference stamp counter; a batch opened at next hides
	// the heap entries stamped before it.
	var next uint64
	batch := batchRef{}
	newUnit := func() *Unit {
		return &Unit{Desc: ComputeUnitDescription{
			Cores:    1 + rng.Intn(5),
			Priority: float64(rng.Intn(3)),
		}}
	}
	take := func(s *[]parkEntry, i int) parkEntry {
		e := (*s)[i]
		*s = append((*s)[:i], (*s)[i+1:]...)
		return e
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // a fresh or re-parked unit
			u := newUnit()
			gated := rng.Intn(3) > 0
			x.push(u, gated)
			heaped = append(heaped, parkEntry{u: u, prio: u.Desc.Priority, cores: u.Desc.Cores, seq: next, gated: gated})
			next++
		case op < 4 && len(popped) > 0 && !batch.open: // back into the heaps, stamp kept or renewed
			e := take(&popped, rng.Intn(len(popped)))
			if rng.Intn(2) == 0 {
				x.stamp(&e)
				next++
			}
			x.insert(e)
			heaped = append(heaped, e)
		case op < 5 && len(popped) > 0:
			e := take(&popped, rng.Intn(len(popped)))
			x.setAside(e)
			aside = append(aside, e)
		case op < 6 && !batch.open:
			x.beginBatch()
			batch = batchRef{open: true, boundary: next}
		case op < 6:
			x.endBatch()
			batch = batchRef{}
			heaped = append(heaped, aside...)
			aside = aside[:0]
		case op < 7 && len(heaped) > 0: // a unit goes final while parked
			stale[heaped[rng.Intn(len(heaped))].u] = true
		default:
			var admits [6]bool
			for c := range admits {
				admits[c] = rng.Intn(2) == 0
			}
			admit := func(cores int) bool { return admits[cores] }
			want := -1
			for i := range heaped {
				e := &heaped[i]
				if e.gated && !admit(e.cores) {
					continue
				}
				if want < 0 || parkLess(e, &heaped[want]) {
					want = i
				}
			}
			got, ok := x.popBest(admit)
			if ok != (want >= 0) {
				t.Fatalf("step %d: popBest ok=%v, reference has an offerable entry: %v", step, ok, want >= 0)
			}
			if !ok {
				break
			}
			pops++
			if w := take(&heaped, want); got != w {
				t.Fatalf("step %d: popBest = %+v, want %+v", step, got, w)
			}
			if !stale[got.u] { // a pass drops stale entries
				popped = append(popped, got)
			}
		}
		checkParkAggregates(t, step, &x, heaped, aside, batch)
		if x.pops != pops {
			t.Fatalf("step %d: pops = %d, want %d", step, x.pops, pops)
		}
	}
}

// batchRef is the reference's view of the open batch.
type batchRef struct {
	open     bool
	boundary uint64
}

func checkParkAggregates(t *testing.T, step int, x *parkIndex, heaped, aside []parkEntry, batch batchRef) {
	t.Helper()
	sum := func(es []parkEntry) (units, cores int) {
		for _, e := range es {
			units++
			cores += e.cores
		}
		return
	}
	var hidden, visible []parkEntry
	for _, e := range heaped {
		if batch.open && e.seq < batch.boundary {
			hidden = append(hidden, e)
		} else {
			visible = append(visible, e)
		}
	}
	visible = append(visible, aside...)
	if u, c := sum(heaped); x.units != u || x.cores != c {
		t.Fatalf("step %d: heap aggregates %d units/%d cores, want %d/%d", step, x.units, x.cores, u, c)
	}
	if u, c := sum(aside); x.asideUnits != u || x.asideCores != c {
		t.Fatalf("step %d: aside aggregates %d units/%d cores, want %d/%d", step, x.asideUnits, x.asideCores, u, c)
	}
	if u, c := sum(hidden); x.hiddenUnits != u || x.hiddenCores != c {
		t.Fatalf("step %d: hidden aggregates %d units/%d cores, want %d/%d", step, x.hiddenUnits, x.hiddenCores, u, c)
	}
	wu, wc := sum(visible)
	if u, c := x.waiting(); u != wu || c != wc {
		t.Fatalf("step %d: waiting %d units/%d cores, want %d/%d", step, u, c, wu, wc)
	}
	seen := make(map[*Unit]int)
	x.forEachVisible(func(u *Unit) { seen[u]++ })
	for _, e := range visible {
		seen[e.u]--
	}
	for u, n := range seen {
		if n != 0 {
			t.Fatalf("step %d: forEachVisible visits unit %p %+d times off the reference", step, u, n)
		}
	}
	for i := 1; i < len(x.classes); i++ {
		if x.classes[i-1].cores >= x.classes[i].cores {
			t.Fatalf("step %d: classes out of demand order: %d before %d", step, x.classes[i-1].cores, x.classes[i].cores)
		}
	}
}
