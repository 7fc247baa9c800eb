package storage

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLocalDiskReadTime(t *testing.T) {
	e := sim.NewEngine()
	d := NewLocalDisk(e, "disk", 100e6, 2*time.Millisecond) // 100 MB/s
	var done time.Duration
	e.Spawn("r", func(p *sim.Proc) {
		d.Read(p, 100e6)
		done = p.Now()
	})
	e.Run()
	want := time.Second + 2*time.Millisecond
	if done != want {
		t.Fatalf("read took %v, want %v", done, want)
	}
	st := d.Stats()
	if st.Ops != 1 || st.BytesRead != 100e6 || st.BytesWrite != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLocalDiskTouchNMatchesTouchLoop: TouchN charges what a loop of
// Touch calls does, in one park; n ≤ 0 neither parks nor yields, so a
// process spawned later at the same instant still runs after it.
func TestLocalDiskTouchNMatchesTouchLoop(t *testing.T) {
	charge := func(touch func(d *LocalDisk, p *sim.Proc)) (done time.Duration, ops int, parks int64) {
		e := sim.NewEngine()
		d := NewLocalDisk(e, "disk", 100e6, 3*time.Millisecond)
		e.Spawn("t", func(p *sim.Proc) { touch(d, p) })
		e.Run()
		_, parks, _, _ = e.Stats()
		return e.Now(), d.Stats().Ops, parks
	}
	loopDone, loopOps, loopParks := charge(func(d *LocalDisk, p *sim.Proc) {
		for i := 0; i < 7; i++ {
			d.Touch(p)
		}
	})
	done, ops, parks := charge(func(d *LocalDisk, p *sim.Proc) { d.TouchN(p, 7) })
	if loopDone != 21*time.Millisecond || loopOps != 7 || loopParks != 7 ||
		done != loopDone || ops != loopOps || parks != 1 {
		t.Fatalf("Touch loop: %v, %d ops, %d parks; TouchN: %v, %d ops, %d parks; want 21ms, 7, 7 and 21ms, 7, 1",
			loopDone, loopOps, loopParks, done, ops, parks)
	}

	e := sim.NewEngine()
	d := NewLocalDisk(e, "disk", 100e6, 3*time.Millisecond)
	var order []string
	e.Spawn("a", func(p *sim.Proc) {
		d.TouchN(p, 0)
		d.TouchN(p, -2)
		order = append(order, "a")
	})
	e.Spawn("b", func(p *sim.Proc) { order = append(order, "b") })
	e.Run()
	if _, parks, _, _ := e.Stats(); parks != 0 || d.Stats().Ops != 0 || e.Now() != 0 ||
		len(order) != 2 || order[0] != "a" {
		t.Fatalf("TouchN(0) and TouchN(-2): %d parks, %d ops, clock %v, order %v; want 0, 0, 0s, [a b]",
			parks, d.Stats().Ops, e.Now(), order)
	}
}

func TestLocalDiskSharedAmongNodeTasks(t *testing.T) {
	e := sim.NewEngine()
	d := NewLocalDisk(e, "disk", 100e6, 0)
	var d1, d2 time.Duration
	e.Spawn("a", func(p *sim.Proc) { d.Write(p, 100e6); d1 = p.Now() })
	e.Spawn("b", func(p *sim.Proc) { d.Write(p, 100e6); d2 = p.Now() })
	e.Run()
	// Two concurrent 1s-alone writes share bandwidth: both finish ~2s.
	if d1 < 1900*time.Millisecond || d2 < 1900*time.Millisecond {
		t.Fatalf("writes finished at %v, %v; want ~2s (shared)", d1, d2)
	}
}

func TestLustreMetadataContention(t *testing.T) {
	e := sim.NewEngine()
	fs := NewLustre(e, "lustre", LustreSpec{
		AggregateBW:    1e9,
		MDSServers:     1,
		MDSServiceTime: 10 * time.Millisecond,
	})
	// 10 concurrent metadata-only ops against a single MDS must
	// serialize: last finishes at ~100ms.
	var last time.Duration
	for i := 0; i < 10; i++ {
		e.Spawn("t", func(p *sim.Proc) {
			fs.Touch(p)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	if last != 100*time.Millisecond {
		t.Fatalf("last touch at %v, want 100ms", last)
	}
}

func TestLustreParallelMDS(t *testing.T) {
	e := sim.NewEngine()
	fs := NewLustre(e, "lustre", LustreSpec{
		AggregateBW:    1e9,
		MDSServers:     4,
		MDSServiceTime: 10 * time.Millisecond,
	})
	var last time.Duration
	for i := 0; i < 8; i++ {
		e.Spawn("t", func(p *sim.Proc) {
			fs.Touch(p)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// 8 ops over 4 servers → two waves of 10ms.
	if last != 20*time.Millisecond {
		t.Fatalf("last touch at %v, want 20ms", last)
	}
}

func TestLustreSharedBandwidthSaturates(t *testing.T) {
	e := sim.NewEngine()
	fs := NewLustre(e, "lustre", LustreSpec{
		AggregateBW: 1e9, // 1 GB/s aggregate
		MDSServers:  16,
	})
	// 4 concurrent 1 GB reads share the 1 GB/s pool: each takes ~4s,
	// whereas alone each would take 1s.
	var last time.Duration
	for i := 0; i < 4; i++ {
		e.Spawn("t", func(p *sim.Proc) {
			fs.Read(p, 1e9)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	if last < 3900*time.Millisecond || last > 4100*time.Millisecond {
		t.Fatalf("saturated reads finished at %v, want ~4s", last)
	}
	if fs.Utilization(last) < 0.95 {
		t.Fatalf("utilization %v, want ~1", fs.Utilization(last))
	}
}

func TestLustreClientLatency(t *testing.T) {
	e := sim.NewEngine()
	fs := NewLustre(e, "lustre", LustreSpec{
		AggregateBW:    1e9,
		MDSServers:     4,
		MDSServiceTime: 5 * time.Millisecond,
		ClientLatency:  15 * time.Millisecond,
	})
	var done time.Duration
	e.Spawn("t", func(p *sim.Proc) {
		fs.Touch(p)
		done = p.Now()
	})
	e.Run()
	if done != 20*time.Millisecond {
		t.Fatalf("touch took %v, want 20ms", done)
	}
}

func TestLustreSpecValidate(t *testing.T) {
	if err := (LustreSpec{AggregateBW: 0, MDSServers: 1}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if err := (LustreSpec{AggregateBW: 1, MDSServers: 0}).Validate(); err == nil {
		t.Fatal("zero MDS accepted")
	}
	if err := (LustreSpec{AggregateBW: 1, MDSServers: 1}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestVolumeStatsAccumulate(t *testing.T) {
	e := sim.NewEngine()
	fs := NewLustre(e, "lustre", LustreSpec{AggregateBW: 1e9, MDSServers: 2})
	e.Spawn("t", func(p *sim.Proc) {
		fs.Write(p, 500)
		fs.Read(p, 1000)
		fs.Touch(p)
	})
	e.Run()
	st := fs.Stats()
	if st.Ops != 3 || st.BytesRead != 1000 || st.BytesWrite != 500 {
		t.Fatalf("stats = %+v", st)
	}
}
