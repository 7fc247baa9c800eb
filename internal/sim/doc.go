// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which every other subsystem in
// this repository (HPC batch schedulers, HDFS, YARN, Spark, the Pilot
// middleware) executes.
//
// # Model
//
// An Engine owns a virtual clock and an ordered event queue. Simulation
// logic is written as ordinary sequential Go code inside processes spawned
// with Engine.Spawn. Each process runs on a goroutine, but exactly one
// goroutine holds control at any instant, and that goroutine runs the
// event loop. When a process parks (Sleep, Wait, ...) or finishes, it pops
// events itself until one wakes a process. A wake only marks its target;
// the loop switches once the event's callback returns. If the target is
// the parking process, it continues with no switch at all; otherwise
// control passes straight to the target's goroutine, so each wake costs
// at most one goroutine switch. When the run ends, control returns to the
// caller of Run. Together with a strict (time, sequence) ordering of
// events this makes runs bit-reproducible for a fixed seed.
//
// Because a parking process runs the loop, a callback scheduled with At
// may run on any process's goroutine, or on Run's caller. It must not
// block, and a panic in it crashes the program as its own, not as a
// panic of that process. Goroutines are pooled: a finished process's
// goroutine runs the next spawned process and keeps the stack it has
// grown. Live processes sit in a list in spawn order; a finished process
// leaves it, so a long run retains only what is still alive.
//
// Processes advance virtual time with Proc.Sleep, synchronize with Event,
// share capacity with Resource and SharedLink (a processor-sharing
// bandwidth model), and exchange values through Queue.
//
// # Shutdown
//
// Engine.Run returns when the event queue drains. Processes still blocked
// at that point (for example, daemon loops waiting for requests) are
// terminated by Engine.Close, which unblocks each one with an internal
// sentinel panic that the kernel recovers; user code only needs to release
// external resources in defers, as it would for normal termination. Close
// then makes the idle pooled goroutines exit.
package sim
