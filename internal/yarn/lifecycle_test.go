package yarn

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// wantApps asserts the RM's live-application counts at a named step.
func wantApps(t *testing.T, rm *ResourceManager, step string, pending, running int) {
	t.Helper()
	m := rm.Metrics()
	if m.AppsPending != pending || m.AppsRunning != running {
		t.Errorf("%s: pending/running = %d/%d, want %d/%d", step, m.AppsPending, m.AppsRunning, pending, running)
	}
}

// TestAppCountsLifecycle scripts every path an application can take
// through the RM and checks the incremental pending/running counts
// after each step.
func TestAppCountsLifecycle(t *testing.T) {
	cases := []struct {
		name string
		// runner is the AM body; registered fires once it has registered.
		runner func(t *testing.T, rm *ResourceManager, registered *sim.Event) AMRunner
		// kill is when the client kills the app: "" never, "submit"
		// straight after Submit, "register" once the AM has registered.
		kill       string
		wantStatus FinalStatus
	}{
		{
			name: "unregister-succeeded",
			runner: func(t *testing.T, rm *ResourceManager, registered *sim.Event) AMRunner {
				return func(p *sim.Proc, am *AppMaster) {
					wantApps(t, rm, "AM launched", 1, 0)
					am.Register(p)
					wantApps(t, rm, "registered", 0, 1)
					am.Unregister(p, StatusSucceeded)
					wantApps(t, rm, "unregistered", 0, 0)
				}
			},
			wantStatus: StatusSucceeded,
		},
		{
			name: "exit-without-unregister",
			runner: func(t *testing.T, rm *ResourceManager, registered *sim.Event) AMRunner {
				return func(p *sim.Proc, am *AppMaster) {
					am.Register(p)
					wantApps(t, rm, "registered", 0, 1)
				}
			},
			wantStatus: StatusFailed,
		},
		{
			name: "kill-before-register",
			runner: func(t *testing.T, rm *ResourceManager, registered *sim.Event) AMRunner {
				return func(p *sim.Proc, am *AppMaster) {
					t.Error("AM of an application killed at submission ran")
					am.Register(p)
				}
			},
			kill:       "submit",
			wantStatus: StatusKilled,
		},
		{
			name: "kill-after-register",
			runner: func(t *testing.T, rm *ResourceManager, registered *sim.Event) AMRunner {
				return func(p *sim.Proc, am *AppMaster) {
					am.Register(p)
					wantApps(t, rm, "registered", 0, 1)
					registered.Trigger()
					p.Sleep(time.Hour) // interrupted by the kill
					t.Error("AM outlived its kill")
				}
			},
			kill:       "register",
			wantStatus: StatusKilled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			rm := deployRM(t, e, testMachine(e, 1), fastConfig())
			registered := sim.NewEvent(e)
			var status FinalStatus
			e.Spawn("client", func(p *sim.Proc) {
				wantApps(t, rm, "before submit", 0, 0)
				app, err := rm.Submit(p, AppDesc{Name: tc.name, Runner: tc.runner(t, rm, registered)})
				if err != nil {
					t.Error(err)
					return
				}
				wantApps(t, rm, "submitted", 1, 0)
				switch tc.kill {
				case "submit":
					rm.Kill(app)
					wantApps(t, rm, "killed", 0, 0)
				case "register":
					p.Wait(registered)
					wantApps(t, rm, "registered (client)", 0, 1)
					rm.Kill(app)
					wantApps(t, rm, "killed", 0, 0)
					rm.Kill(app) // idempotent
					wantApps(t, rm, "killed twice", 0, 0)
				}
				status = app.Wait(p)
			})
			e.Run()
			e.Close()
			if status != tc.wantStatus {
				t.Errorf("status = %v, want %v", status, tc.wantStatus)
			}
			wantApps(t, rm, "end", 0, 0)
		})
	}
}

// TestFinishedAppsLeaveNoState runs applications to completion along
// every terminal path and checks that neither the NodeManagers nor
// anything else the ResourceManager holds still references them — the
// per-application state is bounded by the live applications, not by
// history.
func TestFinishedAppsLeaveNoState(t *testing.T) {
	e := sim.NewEngine()
	m := testMachine(e, 3)
	cfg := fastConfig()
	cfg.LocalizationBytes = 1 << 20
	cfg.Fetcher = VolumeFetcher{Volume: m.Lustre}
	rm := deployRM(t, e, m, cfg)
	const n = 24
	spec := ResourceSpec{MemoryMB: 1024, VCores: 1}
	ran := 0
	var apps []*Application
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			runner := simpleAM(4, spec, time.Duration(i%5+1)*time.Second, &ran)
			switch i % 4 {
			case 1: // exits without unregistering
				runner = func(pp *sim.Proc, am *AppMaster) {
					am.Register(pp)
					am.RequestContainers(pp, spec, 2, nil)
					c := am.NextContainer(pp)
					am.Launch(pp, c, func(cp *sim.Proc, _ *Container) { cp.Sleep(time.Second) })
					pp.Wait(c.Done)
				}
			case 2: // killed while its containers run
				runner = simpleAM(3, spec, time.Hour, &ran)
			}
			app, err := rm.Submit(p, AppDesc{Name: "app", Runner: runner})
			if err != nil {
				t.Error(err)
				return
			}
			apps = append(apps, app)
			if i%4 == 2 {
				app := app
				e.At(p.Now()+90*time.Second, func() { rm.Kill(app) })
			}
		}
		for _, app := range apps {
			app.Wait(p)
		}
	})
	e.Run()
	e.Close()
	if len(apps) != n {
		t.Fatalf("submitted %d apps, want %d", len(apps), n)
	}
	for _, app := range apps {
		if !app.State().terminal() {
			t.Fatalf("app %d ended %v", app.ID, app.State())
		}
	}
	for _, nm := range rm.NodeManagers() {
		if len(nm.localized) != 0 {
			t.Errorf("node %s still holds %d localized apps", nm.Node().Name, len(nm.localized))
		}
		if nm.Containers() != 0 {
			t.Errorf("node %s still holds %d containers", nm.Node().Name, nm.Containers())
		}
	}
	wantApps(t, rm, "end", 0, 0)
	if got := countReachable(reflect.ValueOf(rm), reflect.TypeOf((*Application)(nil)), map[uintptr]bool{}); got != 0 {
		t.Errorf("ResourceManager still references %d applications", got)
	}
}

// countReachable counts distinct pointers of type target reachable from
// v, including through slice capacity past the length (memory the
// garbage collector still sees). The simulation engine is not followed:
// it owns process state, not the RM's.
func countReachable(v reflect.Value, target reflect.Type, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == reflect.TypeOf((*sim.Engine)(nil)) || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := countReachable(v.Elem(), target, seen)
		if v.Type() == target {
			n++
		}
		return n
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return countReachable(v.Elem(), target, seen)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += countReachable(v.Field(i), target, seen)
		}
		return n
	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += countReachable(v.Index(i), target, seen)
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += countReachable(it.Key(), target, seen)
			n += countReachable(it.Value(), target, seen)
		}
		return n
	}
	return 0
}
