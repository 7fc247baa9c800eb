package data

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// addMemPilot provisions a bounded in-memory pilot for the failure and
// caching tests.
func addMemPilot(t *testing.T, dm *Manager, label string, capacity int64) *Pilot {
	t.Helper()
	dp, err := dm.AddPilot(PilotDescription{
		Backend: BackendMem, Label: label, CapacityBytes: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// TestFailPilotReReplicates kills one of a unit's replica holders and
// checks the survivors are made whole: the replica count returns to the
// target on the remaining eligible store, the failed store drops out of
// the replica set, and the unit stays readable.
func TestFailPilotReReplicates(t *testing.T) {
	e, _, dm := newTestManager(t)
	a := addMemPilot(t, dm, "a", 1<<30)
	b := addMemPilot(t, dm, "b", 1<<30)
	c := addMemPilot(t, dm, "c", 1<<30)
	e.Spawn("driver", func(p *sim.Proc) {
		du, err := dm.Submit(p, UnitDescription{
			Name: "/d/twice", SizeBytes: 64 << 20, Replication: 2, Affinity: "a",
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !du.ReplicaOn(a) || !du.ReplicaOn(b) || du.ReplicaOn(c) {
			t.Fatalf("unexpected initial placement: %v", du.Replicas())
		}
		if err := dm.FailPilot(p, b); err != nil {
			t.Error(err)
			return
		}
		if !b.Failed() {
			t.Error("failed pilot does not report Failed()")
		}
		if du.State() != StateReplicated {
			t.Errorf("unit with a surviving replica moved to %v", du.State())
		}
		if du.ReplicaOn(b) {
			t.Error("failed store still counted as a replica holder")
		}
		if !du.ReplicaOn(c) || len(du.Replicas()) != 2 {
			t.Errorf("not re-replicated to the surviving store: %v", du.Replicas())
		}
		if c.Store().ObjectBytes("/d/twice") != 64<<20 {
			t.Error("re-replica bytes missing from the surviving store")
		}
		// A failed store receives nothing new, even as the least occupied.
		du2, err := dm.Submit(p, UnitDescription{Name: "/d/later", SizeBytes: 1 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		if du2.ReplicaOn(b) {
			t.Error("placement chose the failed store")
		}
	})
	e.Run()
}

// TestFailPilotLastReplicaFailsUnit: when the killed store held the only
// copy, the unit fails with ErrUnavailable — and a double kill is a
// no-op.
func TestFailPilotLastReplicaFailsUnit(t *testing.T) {
	e, _, dm := newTestManager(t)
	a := addMemPilot(t, dm, "a", 1<<30)
	e.Spawn("driver", func(p *sim.Proc) {
		du, err := dm.Submit(p, UnitDescription{Name: "/d/once", SizeBytes: 8 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		if err := dm.FailPilot(p, a); err != nil {
			t.Error(err)
			return
		}
		if du.State() != StateFailed || !errors.Is(du.Err, ErrUnavailable) {
			t.Errorf("unit after losing its last replica: %v (err %v), want FAILED with ErrUnavailable",
				du.State(), du.Err)
		}
		if err := dm.FailPilot(p, a); err != nil {
			t.Errorf("second FailPilot on the same store: %v", err)
		}
	})
	e.Run()
}

// TestFailPilotDuringStaging: a store killed while a unit's stage-in is
// mid-ingest must never end up recorded as the unit's replica holder —
// the staging fails with ErrUnavailable instead of "succeeding" onto a
// dead store.
func TestFailPilotDuringStaging(t *testing.T) {
	e, _, dm := newTestManager(t)
	a := addMemPilot(t, dm, "a", 1<<30)
	var du *Unit
	var stageErr error
	e.Spawn("stager", func(p *sim.Proc) {
		var err error
		du, err = dm.Declare(UnitDescription{Name: "/d/midflight", SizeBytes: 512 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		stageErr = dm.Stage(p, du)
	})
	e.Spawn("killer", func(p *sim.Proc) {
		// The 512 MB ingest takes real virtual time; kill the store while
		// it is in flight.
		p.Sleep(1e6)
		if err := dm.FailPilot(p, a); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if stageErr == nil || !errors.Is(stageErr, ErrUnavailable) {
		t.Fatalf("staging onto a store that failed mid-ingest = %v, want ErrUnavailable", stageErr)
	}
	if du.State() != StateFailed {
		t.Errorf("unit = %v, want FAILED", du.State())
	}
	if du.ReplicaOn(a) {
		t.Error("failed store recorded as a replica holder")
	}
}

// TestStageAbandonFreesPlacedReplicas: a staging that ends early must
// not leave replicas behind. A Cancel that lands while the second
// replica is being copied deletes both once the copy returns, and a
// copy that fails frees the first replica, so the stores' occupancy
// returns to what it was.
func TestStageAbandonFreesPlacedReplicas(t *testing.T) {
	const size = 512 << 20
	t.Run("cancel mid-copy", func(t *testing.T) {
		e, _, dm := newTestManager(t)
		a := addMemPilot(t, dm, "a", 1<<31)
		b := addMemPilot(t, dm, "b", 1<<31)
		du, err := dm.Declare(UnitDescription{Name: "/d/canceled", SizeBytes: size, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		var stageErr error
		e.Spawn("stager", func(p *sim.Proc) { stageErr = dm.Stage(p, du) })
		e.Spawn("canceler", func(p *sim.Proc) {
			// Cancel once the first replica is placed, while the copy to
			// the second store is in flight.
			for len(du.Replicas()) != 1 {
				if du.State() == StateReplicated || du.State().Final() {
					t.Error("staging ended before the first replica was placed alone")
					return
				}
				p.Sleep(1e6)
			}
			dm.Cancel(du)
		})
		e.Run()
		if !errors.Is(stageErr, ErrUnavailable) {
			t.Fatalf("Stage after a mid-copy Cancel = %v, want ErrUnavailable", stageErr)
		}
		if du.State() != StateCanceled || len(du.Replicas()) != 0 {
			t.Errorf("unit = %v with %d replicas, want CANCELED with none", du.State(), len(du.Replicas()))
		}
		if a.Store().UsedBytes() != 0 || b.Store().UsedBytes() != 0 {
			t.Errorf("used bytes after cancel: a=%d b=%d, want 0 and 0",
				a.Store().UsedBytes(), b.Store().UsedBytes())
		}
	})
	t.Run("failed copy", func(t *testing.T) {
		e, _, dm := newTestManager(t)
		a := addMemPilot(t, dm, "a", 1<<31)
		b := addMemPilot(t, dm, "b", size)
		du, err := dm.Declare(UnitDescription{Name: "/d/uncopied", SizeBytes: size, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		var stageErr error
		e.Spawn("stager", func(p *sim.Proc) { stageErr = dm.Stage(p, du) })
		e.Spawn("filler", func(p *sim.Proc) {
			// After placement chose b, take one byte of it so the copy
			// to b no longer fits.
			p.Sleep(1e6)
			if err := b.Store().Ingest(p, "/d/filler", 1, nil); err != nil {
				t.Error(err)
			}
		})
		e.Run()
		if !errors.Is(stageErr, ErrStoreFull) {
			t.Fatalf("Stage with a failing copy = %v, want ErrStoreFull", stageErr)
		}
		if du.State() != StateFailed || len(du.Replicas()) != 0 {
			t.Errorf("unit = %v with %d replicas, want FAILED with none", du.State(), len(du.Replicas()))
		}
		if a.Store().UsedBytes() != 0 || a.Store().Has("/d/uncopied") {
			t.Errorf("first replica kept after the failed copy: a holds %d bytes", a.Store().UsedBytes())
		}
		if got := b.Store().UsedBytes(); got != 1 {
			t.Errorf("b holds %d bytes, want only the 1-byte filler", got)
		}
	})
}

// TestCacheReplicaSemantics: a cached copy reads like a replica but is
// excluded from Replicas(), refuses to overflow a bounded store, and is
// promoted to a full replica when the primary holder dies.
func TestCacheReplicaSemantics(t *testing.T) {
	e, _, dm := newTestManager(t)
	a := addMemPilot(t, dm, "a", 1<<30)
	b := addMemPilot(t, dm, "b", 1<<30)
	tiny := addMemPilot(t, dm, "tiny", 1<<20)
	e.Spawn("driver", func(p *sim.Proc) {
		du, err := dm.Submit(p, UnitDescription{
			Name: "/d/hot", SizeBytes: 64 << 20, Affinity: "a",
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !dm.CacheReplica(p, du, b) {
			t.Error("cache to a store with room refused")
		}
		if dm.CacheReplica(p, du, b) {
			t.Error("double cache accepted")
		}
		if dm.CacheReplica(p, du, tiny) {
			t.Error("cache overflowed a bounded store")
		}
		if !du.ReplicaOn(b) || !du.CachedOn(b) {
			t.Error("cached copy not readable")
		}
		if len(du.Replicas()) != 1 {
			t.Errorf("cached copy counted as a managed replica: %v", du.Replicas())
		}
		if b.Store().ObjectBytes("/d/hot") != 64<<20 {
			t.Error("cached bytes missing from the store")
		}
		// The primary dies: the cached copy is promoted, the unit stays
		// Replicated and readable.
		if err := dm.FailPilot(p, a); err != nil {
			t.Error(err)
			return
		}
		if du.State() != StateReplicated {
			t.Errorf("unit with a cached survivor moved to %v", du.State())
		}
		if reps := du.Replicas(); len(reps) != 1 || reps[0] != b {
			t.Errorf("cached copy not promoted: replicas %v", reps)
		}
		if du.CachedOn(b) {
			t.Error("promoted copy still counted as cached")
		}
		// A second cached copy must NOT be promoted past the replication
		// target when the primary dies: one survivor becomes the replica,
		// the surplus stays cached.
		du3, err := dm.Submit(p, UnitDescription{Name: "/d/twocaches", SizeBytes: 1 << 20, Affinity: "b"})
		if err != nil {
			t.Error(err)
			return
		}
		c2 := addMemPilot(t, dm, "c2", 1<<30)
		c3 := addMemPilot(t, dm, "c3", 1<<30)
		if !dm.CacheReplica(p, du3, c2) || !dm.CacheReplica(p, du3, c3) {
			t.Error("caching the second unit failed")
		}
		if err := dm.FailPilot(p, b); err != nil {
			t.Error(err)
			return
		}
		if reps := du3.Replicas(); len(reps) != 1 {
			t.Errorf("promotion overshot the replication target: replicas %v", reps)
		}
		if !du3.CachedOn(c3) {
			t.Error("surplus cached copy lost its cached status")
		}

		// Remove retires cached copies with the unit.
		du2, err := dm.Submit(p, UnitDescription{Name: "/d/gone", SizeBytes: 1 << 20, Affinity: "b"})
		if err != nil {
			t.Error(err)
			return
		}
		dm.CacheReplica(p, du2, tiny)
		if err := dm.Remove(p, du2); err != nil {
			t.Error(err)
			return
		}
		if tiny.Store().Has("/d/gone") {
			t.Error("Remove left the cached copy behind")
		}
	})
	e.Run()
}

// TestCacheReplicaEviction: cached copies on a bounded store are an
// LRU — a new cached copy that does not fit evicts the
// least-recently-used cached copy to make room, while managed replicas
// are never evicted, and a store whose managed replicas alone overflow
// refuses without evicting anything.
func TestCacheReplicaEviction(t *testing.T) {
	e, _, dm := newTestManager(t)
	src := addMemPilot(t, dm, "src", 1<<30)
	// Holds one 8 MB managed replica plus one 8 MB cached copy.
	small := addMemPilot(t, dm, "small", 16<<20)
	e.Spawn("driver", func(p *sim.Proc) {
		pinned, err := dm.Submit(p, UnitDescription{Name: "/d/pin", SizeBytes: 8 << 20, Affinity: "small"})
		if err != nil {
			t.Error(err)
			return
		}
		a, err := dm.Submit(p, UnitDescription{Name: "/d/a", SizeBytes: 8 << 20, Affinity: "src"})
		if err != nil {
			t.Error(err)
			return
		}
		b, err := dm.Submit(p, UnitDescription{Name: "/d/b", SizeBytes: 8 << 20, Affinity: "src"})
		if err != nil {
			t.Error(err)
			return
		}
		if !dm.CacheReplica(p, a, small) {
			t.Error("first cached copy refused despite free space")
		}
		// B does not fit alongside A; A is the LRU cached copy and must
		// be evicted to admit B. The pinned managed replica stays put.
		if !dm.CacheReplica(p, b, small) {
			t.Error("cached copy refused instead of evicting the LRU one")
		}
		if a.CachedOn(small) || small.Store().Has("/d/a") {
			t.Error("evicted copy still present")
		}
		if !b.CachedOn(small) || !small.Store().Has("/d/b") {
			t.Error("admitting copy missing after eviction")
		}
		if !small.Store().Has("/d/pin") || len(pinned.Replicas()) != 1 {
			t.Error("eviction touched a managed replica")
		}
		// A is untouched elsewhere: still a healthy replica on src.
		if a.State() != StateReplicated || !a.ReplicaOn(src) {
			t.Errorf("eviction damaged the unit itself: %v", a.State())
		}
		// Recency matters: touch B (the would-be victim) by re-caching,
		// then a copy that still fits after one eviction... cannot evict
		// the managed replica, so an oversize copy is refused outright.
		big, err := dm.Submit(p, UnitDescription{Name: "/d/big", SizeBytes: 12 << 20, Affinity: "src"})
		if err != nil {
			t.Error(err)
			return
		}
		if dm.CacheReplica(p, big, small) {
			t.Error("cache evicted past the managed-replica floor")
		}
		if !b.CachedOn(small) {
			t.Error("refused admission still evicted the resident copy")
		}
	})
	e.Run()
}
