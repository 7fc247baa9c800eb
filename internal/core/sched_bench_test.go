package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BenchmarkContinuousAcquireRelease exercises the uncontended
// Acquire/Release fast path at several allocation sizes. Before the
// largest-node core count was precomputed at construction, every Acquire
// rescanned all nodes and the cost grew linearly with the allocation;
// with the cached maximum, ns/op stays flat as the node count grows.
func BenchmarkContinuousAcquireRelease(b *testing.B) {
	for _, nodes := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("%dnodes", nodes), func(b *testing.B) {
			eng := sim.NewEngine()
			defer eng.Close()
			m := cluster.New(eng, cluster.MachineSpec{
				Name:  "bench",
				Nodes: nodes,
				Node: cluster.NodeSpec{
					Cores: 8, MemoryMB: 32 * 1024, DiskBW: 200e6,
					DiskOpLatency: time.Millisecond, NICBW: 1e9,
				},
				FabricBW: 10e9,
				Lustre: storage.LustreSpec{
					AggregateBW: 2e9, MDSServers: 4,
					MDSServiceTime: 2 * time.Millisecond, ClientLatency: 3 * time.Millisecond,
				},
				CPUFactor:  1,
				ExternalBW: 100e6,
			})
			s := newContinuousScheduler(eng, m.Nodes)
			u := &Unit{ID: "bench-unit", Desc: ComputeUnitDescription{Cores: 1}.withDefaults()}
			eng.Spawn("bench", func(p *sim.Proc) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sl, err := s.Acquire(p, u)
					if err != nil {
						b.Error(err)
						return
					}
					s.Release(sl)
				}
			})
			eng.Run()
		})
	}
}
