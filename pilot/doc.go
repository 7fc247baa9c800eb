// Package pilot is the public Pilot-API of this repository: a stable,
// idiomatic surface over the RADICAL-Pilot middleware reproduction in
// internal/core. It is the package applications, examples and the repro
// harness program against; internal/core is an implementation detail.
//
// # The Pilot-Abstraction
//
// The paper's core contribution is the Pilot-Abstraction as a uniform
// API over heterogeneous runtimes: a placeholder job (the Pilot) is
// scheduled through the machine's batch system, and application
// workloads (Compute-Units) are then multiplexed onto it without
// further queue waits. This package exposes that abstraction with two
// extension seams:
//
//   - Execution backends. A PilotDescription's Mode names a Backend
//     registered with RegisterBackend. The built-ins are ModeHPC (plain
//     fork/mpiexec execution), ModeYARN (paper Mode I "Hadoop on HPC"
//     spawning a cluster in the allocation, or Mode II "HPC on Hadoop"
//     connecting to a dedicated cluster via ConnectDedicated), and
//     ModeSpark (standalone Spark). New runtimes — a Dask- or
//     Kubernetes-flavoured backend, say — implement the Backend
//     interface and register; no core file changes.
//
//   - Unit schedulers. NewUnitManager takes WithScheduler to select the
//     policy that binds Compute-Units to pilots: the built-ins are
//     "round-robin" (the default), "least-loaded", "backfill"
//     (capacity-aware late binding), "locality" (data-aware placement
//     via ComputeUnitDescription.Inputs), and "co-locate". New policies
//     implement UnitScheduler and register with RegisterUnitScheduler.
//     Under every policy, units bound to a pilot that dies while they
//     are still queued in the coordination store are rebound to the
//     surviving pilots; units its agent had already started processing
//     are canceled with it.
//
//   - State callbacks. Pilot.OnStateChange and Unit.OnStateChange
//     mirror RADICAL-Pilot's register_callback: subscribers observe
//     every state an entity actually enters. Wait, WaitState and
//     WaitAll are built on the same fabric, so blocking and reactive
//     styles compose.
//
//   - State timestamps. Pilots, Units and DataUnits carry Timestamps, an
//     array indexed by state holding when each state was entered (zero
//     for a state never entered). Timestamp(st) reports the time and
//     whether st was reached at all, so it is the way to tell a state
//     skipped on a failure path from one entered at time zero.
//
//   - Elasticity. Pilots are no longer fixed-size: Pilot.Resize grows a
//     running pilot by acquiring extra allocation chunks through the
//     batch system and integrating them into the backend (extra
//     NodeManagers registering with the YARN ResourceManager — the
//     paper's cluster-extension mode — or extra nodes feeding the HPC
//     agent scheduler), and shrinks drain-then-release: running units
//     always finish before nodes are surrendered. Pilot.Capacity
//     reports the current size and the transient PilotResizing state
//     marks a resize in flight. The Autoscaler drives Resize from the
//     AutoscalePolicy value passed to WithAutoscalePolicy — built-ins
//     QueueDepthPolicy (the default), UtilizationPolicy, DeadlinePolicy
//     and DataAwarePolicy, or any type implementing the interface — as
//     a kick-driven control loop wired to the Unit-Manager's
//     scheduling events. Backends opt in by
//     implementing ElasticBackend; Resize on backends that do not
//     (Spark) fails with ErrNotElastic.
//
//   - Pilot-Data. Data is first-class next to compute: a DataManager
//     (NewDataManager) provisions DataPilots on registered data
//     backends — DataBackendLustre (shared filesystem),
//     DataBackendHDFS (a compute pilot's Mode I cluster or a dedicated
//     Mode II one), DataBackendMem (the Pilot-in-Memory tier), plus
//     anything added with RegisterDataBackend — and stages DataUnits
//     onto them through the state machine DataNew → DataStagingIn →
//     DataReplicated → final (same OnStateChange/Wait/WaitState fabric
//     as pilots and units). Replica placement is deterministic:
//     affinity label first, then least-occupied store; replication is
//     capped at the eligible pilots. Compute references data by type —
//     ComputeUnitDescription.Inputs/Outputs []DataRef — and the agent
//     stages every input before the unit reaches UnitExecuting and
//     every declared output when it completes. Attach a data pilot
//     with Pilot.AttachDataPilot and the "locality" and "co-locate"
//     schedulers bind compute to the pilot holding the most input
//     bytes; "co-locate" additionally ranks pilots last when their
//     attached store cannot absorb the unit's declared output bytes.
//
//   - Workload DAGs. NewUnitGraph builds a UnitGraph: Compute-Units
//     whose dependency edges are inferred from Pilot-Data references —
//     a unit listing another unit's declared output among its Inputs
//     depends on it. Submit validates the graph (ErrGraphDuplicateOutput,
//     ErrGraphUnknownInput, ErrGraphCycle and friends, all
//     errors.Is-matchable) and admits every unit at once; the
//     Unit-Manager holds each in UnitPendingInput until its inputs are
//     REPLICATED, releases it off the data layer's state callbacks, and
//     binds by ComputeUnitDescription.Priority — set per unit to its
//     critical-path length under OrderCriticalPath (the default), or
//     left zero for Add-order under OrderFIFO. Failed or unplaceable
//     producers cancel their still-new outputs, so held descendants
//     fail with ErrDataUnavailable instead of waiting forever. The
//     cmd/repro "dag" experiment measures critical-path vs FIFO
//     ordering on a skewed map/shuffle/reduce DAG.
//
//   - Result caching. NewUnitManager(s, WithResultCache(bytes)) serves
//     repeat submissions of identical Compute-Units from a
//     content-addressed cache of completed results. Submissions are
//     keyed by UnitKey — a digest over Executable, Arguments, the input
//     Data-Units (logical name + size) and the declared output
//     Data-Units, order-insensitive over Inputs/Outputs; Cores,
//     MemoryMB, Launch and staging byte counts are excluded because
//     they change how fast a unit runs, never what it produces. A hit
//     completes inside Submit with its Outputs staged as ordinary
//     replicas, never entering the bind loop; a submission identical to
//     a unit still executing coalesces singleflight-style, parking in
//     UnitPendingResult (invisible to ClusterView demand counts) until
//     the leader settles. A failed or canceled leader caches nothing
//     and releases its waiters to execute independently — never a
//     poisoned entry. Entries are LRU-evicted past the byte bound;
//     units declaring no Outputs are uncacheable (ErrCacheNoOutputs,
//     wrapping ErrUncacheable) and always execute. Counters surface as
//     ClusterView.Cache; the cmd/repro "cache" experiment measures the
//     effect on a redundant multi-user workload. The cache is strictly
//     opt-in, and the determinism contract is the application's:
//     executable + arguments + inputs must fully determine the declared
//     outputs.
//
// # Placement fabric
//
// All three decision layers — unit schedulers, autoscale policies, and
// the Pilot-Data co-scheduling signals — consume one coherent snapshot
// of the cluster instead of probing their own partial pictures: the
// ClusterView, assembled by UnitManager.ClusterView. A view carries,
// per pilot, the core capacity (tracking elastic resizes and YARN
// vcores), the waiting/running demand split, the attached data store's
// used/free bytes, and the input bytes parked behind the manager's
// waiting units. Unit schedulers receive its live PilotView rows as
// Pick's candidates; autoscale policies the whole view as
// AutoscaleSnapshot.View. Each Unit-Manager owns one view for its whole
// life, and its per-pilot rows are the manager's in-flight ledger: every
// unit transition (held, bound, running, final) updates the pilot's
// Waiting/Running/Done/Failed counts in place, and
// PilotView.InFlightUnits/InFlightCores derive from them. A read only
// sums the rows into the manager-wide totals and re-probes the live
// figures (capacity, store bytes); it never walks the in-flight units
// and never allocates. Readers must not retain a view, or one of its
// rows, across scheduling events; a retained pointer shows whatever the
// ledger and the latest read made of it. Rebuilding the view per event
// had been a quarter of the bind loop's CPU: on the perfbench manytask workload
// (10⁵ one-core units on 16 HPC pilots under backfill, seed 42, 2-vCPU
// Xeon VM) refreshing it in place took throughput from a median of
// about 28,600 to about 53,000 units/sec over 10 run pairs, with
// identical virtual-time results.
//
// On top of the shared view sits the "data-aware" autoscale policy
// (AutoscaleDataAware, DataAwarePolicy): it grows the pilot whose
// attached store holds the most bytes behind the pending units' Inputs
// — capacity moves to the data, the resize-time analogue of the
// "co-locate" scheduler — and holds pilots whose stores are cold, so
// they stop racing the hot pilot for free nodes. Without a data signal
// it degrades to exactly "queue-depth". The cmd/repro "dataelastic"
// experiment measures the effect on a data-skewed workload.
//
// The data tier is failure-injectable and caching: DataManager.FailPilot
// kills a store mid-run — surviving replicas re-replicate back to the
// target (cached copies are promoted first), and compute units fail
// with ErrDataUnavailable only when an input's last copy died. Stage-in
// through a remote replica leaves an opportunistic cached replica on
// the reading pilot's attached store (capacity-bounded, excluded from
// the replication target, readable like any replica — DataUnit.CachedOn
// distinguishes it), so iterative workloads converge to fully local
// reads without affinity hints.
//
// # Observability
//
// The stack is wired to an opt-in flight recorder. Build a session
// with NewSession(eng, WithRecorder(NewRecorder(eng))) — or attach one
// later with Session.AttachRecorder — and every layer emits typed,
// sim-timestamped events onto one stream (Recorder.Events): pilot,
// unit and Data-Unit state transitions; scheduler bind verdicts;
// autoscaler grow/shrink/hold decisions; DAG admissions and
// hold/release edges; result-cache hits, misses and coalesces; replica
// placement, failure and re-replication; and the engine's Tracef
// lines (batch-queue, YARN and agent lines only: each fact above is
// recorded once, as its typed event). On every scheduling event the
// recorder also samples ClusterView into a Series of live gauges
// (cores, utilization, demand, cache counters), exportable as JSON
// Lines. The recorder keeps each event as a compact record with no
// pointers — one-byte kind, state and op enums, each unit's ID and
// name stored once, pilot IDs and policy names interned, rare free
// text in a side table — in blocks that are never copied as the
// recording grows, so recording allocates almost nothing and the
// garbage collector never scans the log. Strings are built only at
// the edges: Recorder.Events and Series.Samples decode the log into
// one exact-size slice each, and the exporters write their text
// directly. A bind event carries the chosen pilot's cores in flight
// and total cores as two ints (TraceEvent.Running and Nodes); the
// Chrome export renders them as the "N/M cores in flight" detail.
//
// Four consumers sit on the stream: WriteChromeTrace and
// WriteChromeTraceCells render it as Chrome trace-event JSON viewable
// in Perfetto (one complete span per executed unit, instants for
// decisions); VerifyBinds and DoneUnits audit scheduling invariants
// (every DONE unit bound exactly once, coalesced cache waiters never
// bound); internal/profiling derives its per-phase breakdowns from
// the same events; and the metrics bridge below folds the stream into
// labeled instruments. The cmd/repro harness records any experiment
// with -trace/-series, and cmd/tracecheck validates both exports
// (-seriesfile for the gauge stream). Without a recorder attached,
// every instrumentation site reduces to a nil check.
//
// # Metrics
//
// MetricsRegistry is a labeled-instrument registry — counters, gauges
// and histograms with ordered label sets — safe for concurrent
// observation and scraping; a series is observed through the child
// its instrument's With resolves. One path fills it from the event
// stream: NewMetricsBridge(reg) with rec.OnRecord(bridge.Apply) folds
// events in live as they are recorded. Instrument names follow
// Prometheus conventions (snake_case, unit suffixes, _total on
// counters); labels stay low-cardinality — pilot ("pilot.0001"),
// scheduler (the binding policy, or "cache" for units completed from
// the result cache), policy, op, store, kind. The derived set covers
// completions and failures per pilot (pilot_units_done,
// pilot_units_failed), live execution and hold gauges
// (pilot_units_running, pilot_units_held), submit-to-bind latency and
// execution time histograms (bind_latency_seconds,
// unit_duration_seconds), autoscale applications, cache ops, and
// replica traffic in operations and bytes.
//
// ServeMetrics("127.0.0.1:9090", reg) serves a registry over HTTP
// until the returned server is closed, and returns a listen failure as
// its error: GET /metrics returns Prometheus text exposition format
// (0.0.4), GET /debug/pilot the same registry as JSON. A live session
// endpoint is NewRecorder, a bridge hooked on with OnRecord,
// ServeMetrics, and the recorder passed to NewSession through
// WithRecorder. The cmd/repro harness wires the same path with
// -metrics addr
// (add -linger to keep the endpoint up after the experiments finish),
// and its "scale" subcommand sweeps a backfill workload across
// 10²–10⁵ units, writing per-scale throughput, bind-pass and
// turnaround-percentile rows to BENCH_scale.json — the document
// cmd/benchjson's -compare mode gates CI against.
//
// # Scheduling internals
//
// The bind loop that makes the 10⁵-unit sweep feasible is
// capacity-indexed. Units a late-binding policy cannot place yet park
// in priority heaps keyed by their core demand; a scheduling event
// (free capacity, a new or resized pilot, fresh submissions) re-offers
// only the classes the current free capacity could actually satisfy,
// and pilot-set changes trigger a full re-offer so ErrUnschedulable
// verdicts stay current. A pass never touches a class it skips, so on
// a full cluster each fresh arrival costs one offer, not a walk over
// the parked backlog. Offer order is priority-descending with FIFO
// tie-breaks, and a skipped unit keeps its FIFO place among equal
// priorities. Each unit is offered ~2 times instead of once per kick.
// Representative engine throughput at seed 42 (units/sec, host
// wall-clock, same hardware):
//
//	units    rescan loop    capacity-indexed
//	10²          7523            26235
//	10³           395            16998
//	10⁴             2.7          16124
//	10⁵      infeasible           7274
//
// ClusterView demand counts ride the same accounting incrementally,
// and the sim layer's Notifier indexes threshold waiters
// (Wait/WaitState/WaitAll) in a min-heap so a state entry wakes
// exactly the released waiters instead of scanning every parked one.
//
// The live probes refreshed before every offer cost O(NodeManagers)
// per YARN pilot, independent of history: a pilot's capacity is its
// ResourceManager's vcore sum over live NodeManagers, read without
// building a metrics snapshot or allocating, and the RM keeps running
// pending/running application counts instead of every application it
// ever accepted. Finished applications leave no state behind in the RM
// or on the NodeManagers. On the perfbench hadoop-dataflow workload
// (2,700 units on four Mode I YARN pilots, seed 42, 2-vCPU Xeon VM) this
// took throughput from about 1,760 to about 12,200 units/sec, with
// identical virtual-time results.
//
// Every seam selected by name — execution backends, unit schedulers,
// data backends — is one instance of the same generic registry
// (internal/registry): duplicate, empty and nil registrations are
// rejected, names list sorted, and unknown names wrap the seam's
// sentinel for errors.Is. Registering the next seam is a one-liner.
//
// Failure modes carry typed causes: match Submit errors, Resize errors
// and Unit.Err against the ErrNoPilots, ErrNoLivePilot,
// ErrUnschedulable, ErrUnknownScheduler, ErrUnknownResource,
// ErrUnknownBackend, ErrNotElastic and ErrPilotFinal sentinels with
// errors.Is. A pilot whose
// backend cannot bootstrap reaches PilotFailed with Pilot.Err wrapping
// ErrBackendBootstrap and the backend's own error, and units waiting
// for it fail over like on any other pilot death. The Pilot-Data
// analogues are ErrUnknownDataBackend, ErrNoDataPilots,
// ErrDataUnavailable and ErrDataStoreFull, and the UnitGraph analogues
// ErrGraphEmpty, ErrGraphDuplicateUnit, ErrGraphDuplicateOutput,
// ErrGraphUnknownInput, ErrGraphCycle and ErrGraphSubmitted.
//
// # Quickstart
//
//	eng := sim.NewEngine()
//	session := pilot.NewSession(eng, pilot.WithSeed(42))
//	// register a Resource, then:
//	eng.Spawn("driver", func(p *sim.Proc) {
//		pm := pilot.NewPilotManager(session)
//		pl, err := pm.Submit(p, pilot.PilotDescription{
//			Resource: "stampede", Nodes: 2, Runtime: time.Hour,
//		})
//		// ...
//		pl.WaitState(p, pilot.PilotActive)
//		um, _ := pilot.NewUnitManager(session, pilot.WithScheduler("backfill"))
//		um.AddPilot(pl)
//		units, _ := um.Submit(p, descs)
//		um.WaitAll(p, units)
//	})
//	eng.Run()
//
// See README.md for the full tour and the examples/ directory for
// runnable programs.
package pilot
