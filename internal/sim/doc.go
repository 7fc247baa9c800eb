//go:build go1.23

// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which every other subsystem in
// this repository (HPC batch schedulers, HDFS, YARN, Spark, the Pilot
// middleware) executes.
//
// # Model
//
// An Engine owns a virtual clock and an ordered event queue. Simulation
// logic is written as ordinary sequential Go code inside processes spawned
// with Engine.Spawn. Each process runs on a pooled iter.Pull coroutine,
// and exactly one coroutine, or Run's caller, holds control at any instant
// and runs the event loop. When a process parks (Sleep, Wait, ...) or
// finishes, it pops events itself until one wakes a process. A wake only
// marks its target; the loop switches once the event's callback returns.
// If the target is the parking process, it continues with no switch at
// all. Otherwise its coroutine yields the target to Run's caller, which
// resumes the target's coroutine: a trampoline, so only Run's caller ever
// resumes coroutines. Such a handoff costs two coroutine switches, about
// 170 ns on a 2-vCPU Xeon VM, where one goroutine switch through a
// channel costs about 365 ns. When the run ends, the coroutine holding
// control yields to Run's caller, which returns. Together with a strict
// (time, sequence) ordering of events this makes runs bit-reproducible
// for a fixed seed. Engine.Stats counts the events, parks and switches a
// run took.
//
// Because a parking process runs the loop, a callback scheduled with At
// may run on any process's coroutine, or on Run's caller. It must not
// block. A panic in it reaches Run's caller with its own value, never as
// a panic of the process whose coroutine ran it; that coroutine is gone,
// and Close finishes its process without unwinding it. A panic in a
// process body reaches Run's caller too (iter.Pull re-panics it there),
// wrapped with the process's name and the virtual time. Coroutines are
// pooled: a finished process's coroutine runs the next spawned process
// and keeps the stack it has grown. Live processes sit in a list in spawn
// order; a finished process leaves it, so a long run retains only what is
// still alive.
//
// Processes advance virtual time with Proc.Sleep, synchronize with Event,
// share capacity with Resource and SharedLink (a processor-sharing
// bandwidth model), and exchange values through Queue.
//
// # Waits
//
// Each Proc owns one wait slot: a generation counter and an armed flag.
// A blocking call takes the next generation, arms the slot, and hands the
// value {process, generation} to whatever may end the wait: a timer item
// in the event queue, an Event's waiter list, a SharedLink flow, a
// Resource or Queue waiter record. Nothing is allocated per wait. A wake
// takes effect only if its generation is the process's current one and
// the slot is still armed, and taking effect disarms it. Any other wake is
// stale and does nothing: the timer of an interrupted Sleep, the timeout
// of a WaitTimeout its event already won, the completion of a transfer or
// the grant of an Acquire whose interrupt landed first. Stale wakes stay
// in the queue, so every virtual-time result keeps its event order.
//
// # Shutdown
//
// Engine.Run returns when the event queue drains. Processes still blocked
// at that point (for example, daemon loops waiting for requests) are
// terminated by Engine.Close, which resumes each one with an internal
// sentinel panic that the kernel recovers; user code only needs to release
// external resources in defers, as it would for normal termination. Close
// then stops the idle pooled coroutines.
//
// A process may end through runtime.Goexit (a test's FailNow). Its
// coroutine passes control on from its defers and is never resumed, since
// finishing it would propagate the Goexit into the caller of Run or
// Close; it stays suspended for good, one goroutine per such exit.
package sim
