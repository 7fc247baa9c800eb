package spark

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

func testCluster(t *testing.T, e *sim.Engine, nodes int) *Cluster {
	t.Helper()
	m := cluster.New(e, cluster.MachineSpec{
		Name:  "tm",
		Nodes: nodes,
		Node: cluster.NodeSpec{
			Cores: 4, MemoryMB: 8 * 1024, DiskBW: 200e6, NICBW: 1e9,
		},
		FabricBW:  10e9,
		Lustre:    storage.LustreSpec{AggregateBW: 1e9, MDSServers: 2},
		CPUFactor: 1,
	})
	cl, err := NewCluster(e, DefaultConfig(), m.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClusterAndAppLifecycle(t *testing.T) {
	e := sim.NewEngine()
	cl := testCluster(t, e, 2)
	if cl.TotalCores() != 8 {
		t.Fatalf("total cores = %d, want 8", cl.TotalCores())
	}
	e.Spawn("driver", func(p *sim.Proc) {
		app, err := cl.StartApp(p, "probe")
		if err != nil {
			t.Error(err)
			return
		}
		if app.TotalSlots() != 8 {
			t.Errorf("slots = %d, want 8", app.TotalSlots())
		}
		ran := 0
		for i := 0; i < 5; i++ {
			if err := app.RunTask(p, 2, func(*sim.Proc, *cluster.Node) { ran++ }); err != nil {
				t.Error(err)
			}
		}
		if ran != 5 || app.TasksRun != 5 {
			t.Errorf("ran=%d tasksRun=%d, want 5", ran, app.TasksRun)
		}
		if app.FreeSlots() != 8 {
			t.Errorf("free slots = %d after tasks, want 8", app.FreeSlots())
		}
		app.Stop()
		if err := app.RunTask(p, 1, func(*sim.Proc, *cluster.Node) {}); err == nil {
			t.Error("task on stopped app accepted")
		}
		cl.Stop()
		if _, err := cl.StartApp(p, "late"); err == nil {
			t.Error("app on stopped cluster accepted")
		}
	})
	e.Run()
	e.Close()
}

func TestTaskSlotAdmission(t *testing.T) {
	e := sim.NewEngine()
	cl := testCluster(t, e, 1) // 4 cores
	cur, maxCur := 0, 0
	e.Spawn("driver", func(p *sim.Proc) {
		app, _ := cl.StartApp(p, "adm")
		done := sim.NewEvent(e)
		remaining := 8
		for i := 0; i < 8; i++ {
			e.Spawn("t", func(tp *sim.Proc) {
				app.RunTask(tp, 2, func(xp *sim.Proc, _ *cluster.Node) {
					cur += 2
					if cur > maxCur {
						maxCur = cur
					}
					xp.Sleep(10 * time.Second)
					cur -= 2
				})
				remaining--
				if remaining == 0 {
					done.Trigger()
				}
			})
		}
		p.Wait(done)
	})
	e.Run()
	e.Close()
	if maxCur != 4 {
		t.Fatalf("max concurrent cores = %d, want 4", maxCur)
	}
}

func TestTaskValidation(t *testing.T) {
	e := sim.NewEngine()
	cl := testCluster(t, e, 1)
	e.Spawn("driver", func(p *sim.Proc) {
		app, _ := cl.StartApp(p, "val")
		if err := app.RunTask(p, 0, func(*sim.Proc, *cluster.Node) {}); err == nil {
			t.Error("zero-core task accepted")
		}
	})
	e.Run()
	e.Close()
	if _, err := NewCluster(e, DefaultConfig(), nil); err == nil {
		t.Error("empty node list accepted")
	}
}
