package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestFIFOAdmissionLine drives the admission line the continuous and
// YARN schedulers share through its interrupt and capacity paths, and
// the continuous scheduler's drain. Each scheduler has room for exactly
// one unit of the row's shape at a time.
func TestFIFOAdmissionLine(t *testing.T) {
	for _, row := range []struct {
		name     string
		build    func(*sim.Engine) AgentScheduler
		unit     ComputeUnitDescription
		oversize ComputeUnitDescription
	}{
		{
			name: "continuous",
			build: func(e *sim.Engine) AgentScheduler {
				return newContinuousScheduler(e, cluster.New(e, testSpec(1)).Nodes)
			},
			unit:     ComputeUnitDescription{Cores: 8},
			oversize: ComputeUnitDescription{Cores: 9},
		},
		{
			name: "yarn",
			build: func(e *sim.Engine) AgentScheduler {
				return newYARNScheduler(e, 2048+amOverhead.MemMB, 8)
			},
			unit:     ComputeUnitDescription{Cores: 8, MemoryMB: 2048},
			oversize: ComputeUnitDescription{Cores: 1, MemoryMB: 4096},
		},
	} {
		newUnit := func(id string, d ComputeUnitDescription) *Unit {
			return &Unit{ID: id, Desc: d.withDefaults()}
		}
		// scenario holds A's slot from t=0, parks B and then C behind
		// it, and at t=1s has the driver run act on B and A's slot. It
		// returns when B's acquire ended (interrupted or not) and when C
		// was granted (-1: never), and checks that every slot came back.
		scenario := func(t *testing.T, act func(p *sim.Proc, s AgentScheduler, b *sim.Proc, held *Slot)) (bEnd, cGrant sim.Duration, bIntr bool) {
			eng := sim.NewEngine()
			defer eng.Close()
			s := row.build(eng)
			cGrant = -1
			eng.Spawn("driver", func(p *sim.Proc) {
				held, err := s.Acquire(p, newUnit("a", row.unit))
				if err != nil {
					t.Error(err)
					return
				}
				b := eng.Spawn("b", func(bp *sim.Proc) {
					bIntr = sim.OnInterrupt(func() {
						if sl, err := s.Acquire(bp, newUnit("b", row.unit)); err == nil {
							s.Release(sl)
						}
					}) != nil
					bEnd = bp.Now()
				})
				eng.SpawnAfter(time.Millisecond, "c", func(cp *sim.Proc) {
					sl, err := s.Acquire(cp, newUnit("c", row.unit))
					if err != nil {
						t.Error(err)
						return
					}
					cGrant = cp.Now()
					cp.Sleep(time.Second)
					s.Release(sl)
				})
				p.Sleep(time.Second)
				act(p, s, b, held)
			})
			eng.Run()
			free := false
			eng.Spawn("after", func(p *sim.Proc) {
				if _, err := s.Acquire(p, newUnit("d", row.unit)); err != nil {
					t.Error(err)
				}
				free = true
			})
			eng.Run()
			if !free {
				t.Error("a slot leaked: a final acquire on the idle scheduler parked")
			}
			return bEnd, cGrant, bIntr
		}

		t.Run(row.name+"/interrupt-parked", func(t *testing.T) {
			// B is interrupted while parked and withdrawn; C, behind it,
			// is granted when A's slot frees a second later.
			var release sim.Duration
			_, cGrant, bIntr := scenario(t, func(p *sim.Proc, s AgentScheduler, b *sim.Proc, held *Slot) {
				b.Interrupt("cancel")
				p.Sleep(time.Second)
				release = p.Now()
				s.Release(held)
			})
			if !bIntr {
				t.Error("B was not interrupted")
			}
			if cGrant != release || release == 0 {
				t.Errorf("C granted at %v, want at A's release %v", cGrant, release)
			}
		})

		t.Run(row.name+"/interrupt-granted", func(t *testing.T) {
			// The interrupt lands before B's grant wakes it: B returns the
			// slot and C is granted at that same instant.
			bEnd, cGrant, bIntr := scenario(t, func(_ *sim.Proc, s AgentScheduler, b *sim.Proc, held *Slot) {
				b.Interrupt("cancel")
				s.Release(held)
			})
			if !bIntr {
				t.Error("B was not interrupted")
			}
			if cGrant != bEnd || cGrant != time.Second {
				t.Errorf("C granted at %v, B interrupted at %v; want both at 1s", cGrant, bEnd)
			}
		})

		t.Run(row.name+"/oversize", func(t *testing.T) {
			eng := sim.NewEngine()
			defer eng.Close()
			s := row.build(eng)
			eng.Spawn("driver", func(p *sim.Proc) {
				if _, err := s.Acquire(p, newUnit("big", row.oversize)); !errors.Is(err, ErrUnschedulable) {
					t.Errorf("oversize unit: err %v, want ErrUnschedulable", err)
				}
			})
			eng.Run()
		})
	}

	t.Run("continuous/draining-node", func(t *testing.T) {
		// Node 0 is half busy and draining: a unit that would fit in its
		// free half goes to node 1, and the drain ends at A's release.
		eng := sim.NewEngine()
		defer eng.Close()
		nodes := cluster.New(eng, testSpec(2)).Nodes
		s := newContinuousScheduler(eng, nodes)
		half := &Unit{ID: "half", Desc: ComputeUnitDescription{Cores: 4}.withDefaults()}
		var drained sim.Duration
		eng.Spawn("driver", func(p *sim.Proc) {
			a, err := s.Acquire(p, half)
			if err != nil || a.Node != nodes[0] {
				t.Errorf("A: err %v, want a slot on node 0", err)
				return
			}
			eng.Spawn("drain", func(dp *sim.Proc) {
				s.drainNodes(dp, nodes[:1])
				drained = dp.Now()
			})
			p.Yield()
			b, err := s.Acquire(p, half)
			if err != nil || b.Node != nodes[1] {
				t.Errorf("B: err %v, want a slot on node 1 while node 0 drains", err)
			}
			p.Sleep(time.Second)
			s.Release(a)
		})
		eng.Run()
		if drained != time.Second {
			t.Errorf("drain ended at %v, want 1s (A's release)", drained)
		}
		if len(s.nodes) != 1 || s.nodes[0] != nodes[1] {
			t.Errorf("pool after drain has %d nodes, want only node 1", len(s.nodes))
		}
	})
}
