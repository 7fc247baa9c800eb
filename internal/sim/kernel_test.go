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

// settledGoroutines polls runtime.NumGoroutine until the count holds
// still for 20 polls in a row, so a baseline read soon after an earlier
// engine's Close does not count pooled goroutines still exiting.
func settledGoroutines() int {
	deadline := time.Now().Add(5 * time.Second)
	got := runtime.NumGoroutine()
	for stable := 0; stable < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != got {
			got, stable = n, 0
		} else {
			stable++
		}
	}
	return got
}

// TestSequentialSpawnsReuseGoroutines: a finished process's goroutine runs
// the next spawned process, so 1,000 spawns in sequence add only a small
// constant number of goroutines, and Close retires them all.
func TestSequentialSpawnsReuseGoroutines(t *testing.T) {
	base := settledGoroutines()
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
	if got := waitGoroutines(base); got > base {
		t.Fatalf("%d goroutines after Close, want at most the baseline %d", got, base)
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
		wait{a, a.gen}.wake(wakeFired)
		wait{b, b.gen}.wake(wakeFired)
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

// TestGoexitInProcessPassesControlOn: a process whose coroutine exits
// through runtime.Goexit (a test's FailNow) ends like a returned one, and
// the run goes on without its coroutine. That coroutine stays suspended
// for good: Close returns, and leaves at most one goroutine behind.
func TestGoexitInProcessPassesControlOn(t *testing.T) {
	base := settledGoroutines()
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
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Close()
		ok = true
	}()
	if !<-returned {
		t.Fatal("Close did not return: the process's Goexit reached its caller")
	}
	if got := waitGoroutines(base + 1); got > base+1 {
		t.Fatalf("%d goroutines after Close, want at most the baseline %d plus one", got, base)
	}
}

// TestCloseAfterRecoveredCallbackPanic: a callback's panic ends the
// coroutine that ran it and reaches Run's caller. If the caller recovers
// it, Close still finishes the process whose coroutine died, and returns.
func TestCloseAfterRecoveredCallbackPanic(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	e.At(time.Second, func() { panic("callback boom") })
	func() {
		defer func() {
			if r := recover(); r != "callback boom" {
				t.Fatalf("Run recovered %v, want the callback's panic", r)
			}
		}()
		e.Run() // the sleeper's coroutine runs the callback
	}()
	e.Close()
	if e.Processes() != 0 {
		t.Fatalf("%d live processes after Close, want 0", e.Processes())
	}
}

// TestProcessPanicNamesItsProcess: a panic in a process body reaches
// Run's caller with the process's name and the virtual time attached.
// The crash happens in a child copy of the test binary.
func TestProcessPanicNamesItsProcess(t *testing.T) {
	if os.Getenv("SIM_PROCESS_PANIC_CHILD") == "1" {
		e := NewEngine()
		e.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
		e.Spawn("boom", func(p *Proc) {
			p.Sleep(time.Second)
			panic("process boom")
		})
		e.Run()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcessPanicNamesItsProcess$")
	cmd.Env = append(os.Environ(), "SIM_PROCESS_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; output:\n%s", out)
	}
	if !strings.Contains(string(out), `sim: process "boom" panicked at 1s: process boom`) {
		t.Fatalf("child did not crash with the named process panic; output:\n%s", out)
	}
}

// TestStatsCountKernelWork pins the work counters on a fixed scenario:
// three ping-pong round trips through Events beside a sleeper. Every
// wake hands control to another process's coroutine except the
// sleeper's last three, which it wakes itself while it runs the loop.
func TestStatsCountKernelWork(t *testing.T) {
	e := NewEngine()
	var ping, pong [3]*Event
	for i := range ping {
		ping[i], pong[i] = NewEvent(e), NewEvent(e)
	}
	e.Spawn("ping", func(p *Proc) {
		for i := range ping {
			ping[i].Trigger()
			p.Wait(pong[i])
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := range ping {
			p.Wait(ping[i]) // already triggered on the first round: a yield
			pong[i].Trigger()
		}
	})
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Second)
		}
	})
	e.Run()
	e.Close()
	// 3 starts, 1 yield, 5 ping-pong wakes, 4 sleeps; 3 + 3 + 4 parks.
	events, parks, switches, spawns := e.Stats()
	if events != 13 || parks != 10 || switches != 10 || spawns != 3 {
		t.Fatalf("Stats() = %d events, %d parks, %d switches, %d spawns; want 13, 10, 10, 3",
			events, parks, switches, spawns)
	}
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

// BenchmarkTransfer: one process moving data alone over a link, so every
// completion wakes it with no switch.
func BenchmarkTransfer(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	l := NewSharedLink(e, "disk", 1e9)
	e.Spawn("mover", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			l.Transfer(p, 1<<20)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
