// Package core implements the RADICAL-Pilot resource-management
// middleware behind the public Pilot-API. Applications should import
// the top-level pilot package instead; core is an implementation
// detail whose exported identifiers are re-exported (as aliases)
// there.
//
// # Architecture (paper Figure 3)
//
// A Session owns the coordination store (the shared MongoDB) and the
// resource registry. The PilotManager submits placeholder jobs through
// the SAGA layer to a machine's batch scheduler (steps P.1–P.2); the
// job's payload is the Pilot-Agent. The UnitManager binds Compute-Units
// to pilots and queues them in the store (steps U.1–U.2); the agent
// periodically pulls them (U.3), schedules them with an AgentScheduler
// (U.4) and executes them through its Backend's LaunchUnit (U.5–U.7).
//
// # Backends (paper Figure 1)
//
// Everything runtime-specific lives behind the Backend interface,
// selected by a PilotDescription's Mode and instantiated per pilot
// from the registry (RegisterBackend). ModeHPC is the classic agent: a
// continuous core scheduler and fork/mpiexec launch methods, with unit
// sandboxes on the shared parallel filesystem. ModeYARN spawns an
// HDFS+YARN cluster inside the allocation (Mode I, "Hadoop on HPC") or
// connects to a dedicated cluster (Mode II, "HPC on Hadoop" —
// Wrangler's reserved Hadoop environment); units run as YARN
// applications with a managed Application Master per unit (Figure 4)
// and sandboxes on node-local disk. ModeSpark spawns a standalone
// Spark cluster and runs units on its executors. New runtimes register
// without modifying this package.
//
// # State model
//
// Pilots and units advance through the RADICAL-Pilot state models
// (states.go). Every transition flows through the notifier fabric in
// callbacks.go: subscribers registered with OnStateChange observe each
// state actually entered, and Wait/WaitState/WaitAll park on the same
// fabric. States skipped on failure paths fire no callbacks, but the
// failure's final state wakes every parked waiter. The Unit-Manager's
// own bookkeeping for a unit it submitted (ledger phase, result-cache
// flight, bind-loop kick) is not a subscription: the unit's state entry
// calls it directly, ahead of every subscriber.
//
// The package's timing behaviour is calibrated by a BootstrapProfile so
// the startup experiments (paper Figure 5) reproduce: agent bootstrap
// dominated by small-file operations on Lustre, 50–85 s of extra Mode I
// cluster-spawn time, and tens of seconds of per-unit startup under YARN
// versus about a second with fork.
package core
