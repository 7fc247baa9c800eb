package data

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Failed reports whether the pilot's store was killed by FailPilot. A
// failed pilot never receives new replicas (placement, re-replication
// and caching all skip it) and no longer counts as holding any.
func (dp *Pilot) Failed() bool { return dp.failed }

// FailPilot kills a data pilot mid-run — the Pilot-Data failure
// injection, the data-side analogue of cancelling a compute pilot under
// the unit-scheduler failover test. The store's replicas are lost:
// every live unit drops it from its replica set, and then, in unit-ID
// order (deterministic),
//
//   - a Replicated unit with surviving copies re-replicates from its
//     first surviving replica back up to its replication target, on the
//     surviving stores (capped at the eligible stores, like placement);
//     a cached copy left by stage-in is promoted to a full replica
//     first — the bytes already exist, so durability is restored for
//     free;
//   - a Replicated unit whose last copy died fails with ErrUnavailable,
//     so Compute-Units reading it fail with ErrUnavailable as the cause
//     — and only then: while any replica survives, reads keep working.
//
// Units still staging keep their in-flight transfers; their next Stage
// step observes the shrunk replica set. Re-replication copies run on p,
// so FailPilot returns once the survivors are whole again.
func (dm *Manager) FailPilot(p *sim.Proc, dp *Pilot) error {
	if dp == nil || dp.mgr != dm {
		return fmt.Errorf("data: pilot does not belong to this manager")
	}
	if dp.failed {
		return nil
	}
	dp.failed = true
	if r := dm.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindStoreFail, Pilot: dp.Label(),
			Detail: dp.store.Name(), Bytes: dp.store.UsedBytes()})
	}

	// Collect the live units in ID order so re-replication placement is
	// deterministic regardless of map iteration.
	units := make([]*Unit, 0, len(dm.names))
	for _, du := range dm.names {
		units = append(units, du)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })

	var firstErr error
	for _, du := range units {
		if !du.dropPilot(dp) || du.state != StateReplicated {
			continue
		}
		if len(du.replicas) == 0 && len(du.cached) > 0 {
			// Promote one cached copy so the unit survives; reReplicate
			// promotes further ones only up to the replication target, so
			// cached copies never inflate the managed replica count.
			du.promoteCached()
		}
		if len(du.replicas) == 0 {
			du.fail(fmt.Errorf("data: unit %s: %w: store %s failed holding the last replica",
				du.ID, ErrUnavailable, dp.store.Name()))
			continue
		}
		if err := dm.reReplicate(p, du); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reReplicate restores du's replication target on the surviving stores:
// cached copies are promoted first (no bytes move), then new replicas
// are copied from the first surviving one, placed like placeReplicas —
// least-occupied eligible store, ties by registration order. Fewer
// eligible stores than the target caps the count, like HDFS caps
// replication at its DataNode count.
func (dm *Manager) reReplicate(p *sim.Proc, du *Unit) error {
	src := du.replicas[0]
	for len(du.replicas) < du.Desc.Replication {
		if len(du.cached) > 0 {
			du.promoteCached()
			continue
		}
		var best *Pilot
		for _, cand := range dm.pilots {
			if cand.failed || cand.store.Has(du.Name()) {
				continue
			}
			if cap := cand.store.CapacityBytes(); cap > 0 && cand.store.UsedBytes()+du.Desc.SizeBytes > cap {
				continue
			}
			if best == nil || cand.store.UsedBytes() < best.store.UsedBytes() {
				best = cand
			}
		}
		if best == nil {
			return nil // capped at the surviving eligible stores
		}
		if err := dm.copyReplica(p, du, src, best); err != nil {
			return fmt.Errorf("data: unit %s re-replica to %s: %w", du.ID, best.store.Name(), err)
		}
		du.replicas = append(du.replicas, best)
		dm.recordReplica(du, best, "re-replicate")
	}
	return nil
}

// CacheReplica leaves an opportunistic cached replica of du on dp — the
// stage-in cache: when a Compute-Unit on a pilot with an attached store
// reads a remote replica, the bytes just travelled anyway, so parking a
// copy costs only the local write. Cached replicas are capacity-bounded
// through the shared LRU policy (internal/cache): a store without room
// first evicts its least-recently-read cached copies — managed replicas
// are never touched — and only skips the cache when even that cannot
// make space. Cached copies are excluded from the replication target
// count but count as replicas for reads and placement scoring — an
// iterative workload's second pass reads fully local. It reports
// whether a copy was cached; every skip (unit not readable, store
// failed or irreparably full or already holding) is silent, as befits a
// cache. Re-caching an already cached copy refreshes its recency.
func (dm *Manager) CacheReplica(p *sim.Proc, du *Unit, dp *Pilot) bool {
	if du == nil || du.mgr != dm || dp == nil || dp.mgr != dm {
		return false
	}
	if dp.failed || du.state != StateReplicated {
		return false
	}
	if dp.store.Has(du.Name()) {
		if du.CachedOn(dp) {
			dp.cached.Get(du.Name()) // a re-read: refresh recency only
		}
		return false
	}
	need := du.Desc.SizeBytes
	if cap := dp.store.CapacityBytes(); cap > 0 {
		if dp.store.UsedBytes()-dp.cached.UsedBytes()+need > cap {
			// Managed replicas alone overflow the store: no amount of
			// cache eviction makes room, so do not evict for nothing.
			return false
		}
		for dp.store.UsedBytes()+need > cap {
			ent, ok := dp.cached.RemoveOldest()
			if !ok {
				return false
			}
			if err := dp.store.Delete(p, ent.Key); err != nil {
				return false
			}
			ent.Value.dropCachedOn(dp)
			dm.recordReplica(ent.Value, dp, "evict")
		}
	}
	if err := dp.store.Ingest(p, du.Name(), need, nil); err != nil {
		return false
	}
	du.cached = append(du.cached, dp)
	dp.cached.Put(du.Name(), du, need)
	dm.recordReplica(du, dp, "cache")
	return true
}
