package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = p.Now()
	})
	e.Run()
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", woke)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("engine now %v, want 3s", e.Now())
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (full order %v)", i, v, i, order)
		}
	}
}

func TestSpawnedProcessesInterleaveDeterministically(t *testing.T) {
	run := func() string {
		e := NewEngine()
		var sb strings.Builder
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					fmt.Fprintf(&sb, "%d@%v;", i, p.Now())
					p.Sleep(time.Duration(i+1) * time.Second)
				}
			})
		}
		e.Run()
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic runs:\n%s\n%s", a, b)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(time.Second, func() { fired++ })
	e.At(5*time.Second, func() { fired++ })
	e.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after full run, want 2", fired)
	}
}

func TestCloseKillsBlockedProcessesAndRunsDefers(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	cleaned := false
	e.Spawn("blocked", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(ev) // never triggered
		t.Error("process should never resume normally")
	})
	e.Run()
	if got := e.Processes(); got != 1 {
		t.Fatalf("live processes after Run = %d, want 1", got)
	}
	e.Close()
	if !cleaned {
		t.Fatal("defer did not run on kill")
	}
	if got := e.Processes(); got != 0 {
		t.Fatalf("live processes after Close = %d, want 0", got)
	}
}

func TestCloseKillsNeverStartedProcess(t *testing.T) {
	e := NewEngine()
	started := false
	e.SpawnAfter(time.Hour, "late", func(p *Proc) { started = true })
	e.RunUntil(time.Second)
	e.Close()
	if started {
		t.Fatal("process should not have started")
	}
	if e.Processes() != 0 {
		t.Fatalf("live processes = %d, want 0", e.Processes())
	}
}

func TestEventTriggerWakesAllWaitersInOrder(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Wait(ev)
			order = append(order, name)
		})
	}
	e.At(time.Second, func() { ev.Trigger() })
	e.Run()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("wake order %q, want abc", got)
	}
	if !ev.Triggered() {
		t.Fatal("event not marked triggered")
	}
	ev.Trigger() // idempotent
}

func TestWaitOnTriggeredEventReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	ev.Trigger()
	var at time.Duration = -1
	e.Spawn("w", func(p *Proc) {
		p.Wait(ev)
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("resumed at %v, want 0", at)
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var fired bool
	var at time.Duration
	e.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(ev, 10*time.Second)
		at = p.Now()
	})
	e.At(2*time.Second, func() { ev.Trigger() })
	e.Run()
	if !fired || at != 2*time.Second {
		t.Fatalf("fired=%v at=%v, want true at 2s", fired, at)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var fired bool
	var at time.Duration
	e.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(ev, 10*time.Second)
		at = p.Now()
	})
	e.Run()
	if fired || at != 10*time.Second {
		t.Fatalf("fired=%v at=%v, want false at 10s", fired, at)
	}
	// Triggering afterwards must not double-wake the process.
	ev.Trigger()
	e.Run()
}

func TestYieldOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("first", func(p *Proc) {
		order = append(order, "first-before")
		p.Yield()
		order = append(order, "first-after")
	})
	e.Spawn("second", func(p *Proc) {
		order = append(order, "second")
	})
	e.Run()
	want := "first-before,second,first-after"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestSpawnAfterDelaysStart(t *testing.T) {
	e := NewEngine()
	var started time.Duration = -1
	e.SpawnAfter(7*time.Second, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 7*time.Second {
		t.Fatalf("started at %v, want 7s", started)
	}
}

func TestNegativeSleepActsAsYield(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	e.Run()
}

func TestTraceOutput(t *testing.T) {
	e := NewEngine()
	var sb strings.Builder
	e.SetTrace(&sb)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Second)
		e.Tracef("hello %d", 42)
	})
	e.Run()
	if !strings.Contains(sb.String(), "hello 42") {
		t.Fatalf("trace missing message: %q", sb.String())
	}
}

func TestTraceFunc(t *testing.T) {
	e := NewEngine()
	var sb strings.Builder
	var gotAt time.Duration
	var gotMsg string
	calls := 0
	e.SetTrace(&sb)
	e.SetTraceFunc(func(at time.Duration, msg string) {
		calls++
		gotAt, gotMsg = at, msg
	})
	e.At(2*time.Second, func() { e.Tracef("hook %d", 7) })
	e.Run()
	if calls != 1 || gotMsg != "hook 7" || gotAt != 2*time.Second {
		t.Fatalf("trace func saw calls=%d msg=%q at=%v", calls, gotMsg, gotAt)
	}
	if !strings.Contains(sb.String(), "hook 7") {
		t.Fatalf("writer sink lost the line alongside the func sink: %q", sb.String())
	}
	// Uninstalling restores the no-op fast path.
	e.SetTrace(nil)
	e.SetTraceFunc(nil)
	e.Spawn("q", func(p *Proc) { e.Tracef("dropped") })
	e.Run()
	if calls != 1 {
		t.Fatalf("uninstalled trace func still called: %d", calls)
	}
}

func TestSecondsAndTransferTime(t *testing.T) {
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Fatalf("Seconds(1.5) = %v", got)
	}
	if got := Seconds(-1); got != 0 {
		t.Fatalf("Seconds(-1) = %v, want 0", got)
	}
}
