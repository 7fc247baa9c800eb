package sim

import (
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRandomScheduleFiresInStableSortOrder: callbacks with many equal
// times fire in the order of a stable sort by time, across partial runs.
func TestRandomScheduleFiresInStableSortOrder(t *testing.T) {
	const n = 20000
	rng := NewRNG(7)
	e := NewEngine()
	at := make([]time.Duration, n)
	var fired []int
	for i := range at {
		i := i
		at[i] = time.Duration(rng.Intn(200)) * time.Millisecond
		e.At(at[i], func() { fired = append(fired, i) })
	}
	for h := time.Duration(0); h < 200*time.Millisecond; h += time.Duration(rng.Intn(30)) * time.Millisecond {
		e.RunUntil(h)
	}
	e.Run()
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return at[want[a]] < at[want[b]] })
	if len(fired) != n {
		t.Fatalf("%d callbacks fired, want %d", len(fired), n)
	}
	for k := range want {
		if fired[k] != want[k] {
			t.Fatalf("position %d fired callback %d (at %v), want %d (at %v)",
				k, fired[k], at[fired[k]], want[k], at[want[k]])
		}
	}
}

// waitGoroutines polls until runtime.NumGoroutine is at most n: a
// goroutine that has handed control back still needs a moment to exit.
func waitGoroutines(n int) int {
	deadline := time.Now().Add(5 * time.Second)
	got := runtime.NumGoroutine()
	for got > n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestSequentialSpawnsReuseGoroutines: a finished process's goroutine runs
// the next spawned process, so 1,000 spawns in sequence add only a small
// constant number of goroutines, and Close retires them all.
func TestSequentialSpawnsReuseGoroutines(t *testing.T) {
	base := waitGoroutines(runtime.NumGoroutine())
	e := NewEngine()
	peak := 0
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			done := NewEvent(e)
			e.Spawn("child", func(c *Proc) {
				c.Sleep(time.Millisecond)
				done.Trigger()
			})
			p.Wait(done)
			if n := runtime.NumGoroutine() - base; n > peak {
				peak = n
			}
		}
	})
	e.Run()
	if peak > 3 {
		t.Fatalf("%d goroutines above baseline during the run, want at most 3", peak)
	}
	e.Close()
	if got := waitGoroutines(base); got != base {
		t.Fatalf("%d goroutines after Close, want the baseline %d", got, base)
	}
}

// TestFinishedProcessIsNotRetained: a live engine keeps no reference to a
// finished process, and Processes counts exactly the live list.
func TestFinishedProcessIsNotRetained(t *testing.T) {
	e := NewEngine()
	e.Spawn("long", func(p *Proc) { p.Sleep(time.Hour) })
	var collected atomic.Bool
	func() {
		short := e.Spawn("short", func(p *Proc) { p.Sleep(time.Second) })
		runtime.SetFinalizer(short, func(*Proc) { collected.Store(true) })
	}()
	e.RunUntil(2 * time.Second)
	listed := 0
	for p := e.head; p != nil; p = p.next {
		if p.done {
			t.Fatalf("finished process %q still on the live list", p.name)
		}
		listed++
	}
	if listed != 1 || e.Processes() != 1 {
		t.Fatalf("live list holds %d, Processes() = %d, want 1 and 1", listed, e.Processes())
	}
	deadline := time.Now().Add(5 * time.Second)
	for !collected.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("finished process still reachable from a live engine")
	}
	e.Close()
	if e.Processes() != 0 || e.head != nil || e.tail != nil {
		t.Fatalf("after Close: Processes() = %d, head %v, tail %v", e.Processes(), e.head, e.tail)
	}
}

// TestOneEventWakingTwoProcessesPanics: each event hands control to at
// most one process; a second wake from one callback is a kernel bug.
func TestOneEventWakingTwoProcessesPanics(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(p *Proc) { p.Wait(NewEvent(e)) })
	b := e.Spawn("b", func(p *Proc) { p.Wait(NewEvent(e)) })
	e.Run()
	e.At(0, func() {
		a.cur.wake(wakeFired)
		b.cur.wake(wakeFired)
	})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "woke two processes") {
				t.Fatalf("second wake from one callback: recovered %v, want the kernel panic", r)
			}
		}()
		e.Run() // the callback runs on this goroutine: control is here
	}()
	e.Close()
	if e.Processes() != 0 {
		t.Fatalf("%d live processes after Close", e.Processes())
	}
}

// TestGoexitInProcessPassesControlOn: a process whose goroutine exits
// through runtime.Goexit (a test's FailNow) ends like a returned one, and
// the run goes on without its goroutine.
func TestGoexitInProcessPassesControlOn(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("quitter", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	var done time.Duration
	e.Spawn("worker", func(p *Proc) {
		p.Sleep(3 * time.Second)
		e.Spawn("late", func(p *Proc) { p.Sleep(time.Second) })
		done = p.Now()
	})
	e.Run()
	if !cleaned || done != 3*time.Second || e.Now() != 4*time.Second {
		t.Fatalf("cleaned=%v worker done at %v, run ended at %v; want true, 3s, 4s", cleaned, done, e.Now())
	}
	if e.Processes() != 0 {
		t.Fatalf("%d live processes, want 0", e.Processes())
	}
	e.Close()
}

// TestCallbackPanicIsReportedUnchanged: an At callback may run on the
// goroutine of the process that was dispatching. Its panic must crash the
// program with its own value, not as that process's panic, stop or
// interrupt. The crash happens in a child copy of the test binary.
func TestCallbackPanicIsReportedUnchanged(t *testing.T) {
	if os.Getenv("SIM_CALLBACK_PANIC_CHILD") == "1" {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			OnInterrupt(func() { p.Sleep(time.Hour) })
		})
		e.At(time.Second, func() { panic("callback boom") })
		e.Run()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCallbackPanicIsReportedUnchanged$")
	cmd.Env = append(os.Environ(), "SIM_CALLBACK_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; output:\n%s", out)
	}
	if !strings.Contains(string(out), "panic: callback boom") {
		t.Fatalf("child did not crash with the callback's panic; output:\n%s", out)
	}
	if strings.Contains(string(out), `process "sleeper" panicked`) {
		t.Fatalf("callback panic reported as the process's; output:\n%s", out)
	}
}

// BenchmarkSpawn: spawn one process and run it to completion.
func BenchmarkSpawn(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	body := func(p *Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", body)
		e.Run()
	}
}

// BenchmarkHandoff: two processes ping-pong through Events; one op is a
// round trip, two wakes that each switch goroutines.
func BenchmarkHandoff(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	req, rep := NewEvent(e), NewEvent(e)
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			r := rep
			req.Trigger()
			p.Wait(r)
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(req)
			r := rep
			req, rep = NewEvent(e), NewEvent(e)
			r.Trigger()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleep: one process sleeping alone, so every wake is its own.
func BenchmarkSleep(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Second)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
