// Package storage models the storage hierarchy of an HPC machine: local
// node disks and a shared parallel filesystem (Lustre). Both expose the
// same Volume interface so higher layers (HDFS, MapReduce shuffle, pilot
// staging) can be pointed at either backend — the choice of backend is one
// of the central trade-offs the paper evaluates.
//
// The models are fluid: bandwidth is a processor-shared link, and every
// filesystem operation pays a per-operation latency. For Lustre the
// per-operation cost goes through a metadata-server queue shared by the
// whole machine, which reproduces the small-file/metadata bottleneck that
// makes node-local disks preferable for shuffle-heavy workloads.
package storage

import (
	"fmt"

	"repro/internal/sim"
)

// Volume is a byte-addressable storage backend with per-operation latency.
type Volume interface {
	// Name identifies the volume in traces, e.g. "lustre" or "disk:n3".
	Name() string
	// Read blocks p for one metadata operation plus the transfer of
	// bytes at the volume's (shared) bandwidth.
	Read(p *sim.Proc, bytes int64)
	// Write is the symmetric operation for writes.
	Write(p *sim.Proc, bytes int64)
	// Touch performs a metadata-only operation (open/create/stat).
	Touch(p *sim.Proc)
	// StreamWrite writes bytes as a stream of ops small operations (a
	// line-buffered writer, an untar): the per-operation costs are paid
	// in aggregate without simulating each operation individually.
	StreamWrite(p *sim.Proc, bytes int64, ops int)
	// StreamRead is the read-side analogue.
	StreamRead(p *sim.Proc, bytes int64, ops int)
	// Stats reports cumulative operation and byte counters.
	Stats() Stats
}

// Stats are cumulative volume counters.
type Stats struct {
	Ops        int
	BytesRead  int64
	BytesWrite int64
}

// LocalDisk is a node-private disk (spinning SATA on Stampede, flash on
// Wrangler). Bandwidth is shared only among tasks on the same node.
type LocalDisk struct {
	name  string
	link  *sim.SharedLink
	opLat sim.Duration
	stats Stats
}

// NewLocalDisk creates a node-local disk with the given bandwidth
// (bytes/second) and per-operation latency.
func NewLocalDisk(e *sim.Engine, name string, bytesPerSec float64, opLat sim.Duration) *LocalDisk {
	return &LocalDisk{
		name:  name,
		link:  sim.NewSharedLink(e, name, bytesPerSec),
		opLat: opLat,
	}
}

func (d *LocalDisk) Name() string { return d.name }

func (d *LocalDisk) Touch(p *sim.Proc) {
	d.stats.Ops++
	p.Sleep(d.opLat)
}

func (d *LocalDisk) Read(p *sim.Proc, bytes int64) {
	d.Touch(p)
	d.stats.BytesRead += bytes
	d.link.Transfer(p, bytes)
}

func (d *LocalDisk) Write(p *sim.Proc, bytes int64) {
	d.Touch(p)
	d.stats.BytesWrite += bytes
	d.link.Transfer(p, bytes)
}

func (d *LocalDisk) Stats() Stats { return d.stats }

// StartRead begins an asynchronous read of bytes and returns an event
// that triggers on completion. It does not include the per-operation
// latency; call Touch first if the operation is metadata-bearing.
func (d *LocalDisk) StartRead(bytes int64) *sim.Event {
	d.stats.BytesRead += bytes
	return d.link.StartTransfer(bytes)
}

// StartWrite is the asynchronous analogue of Write, minus Touch.
func (d *LocalDisk) StartWrite(bytes int64) *sim.Event {
	d.stats.BytesWrite += bytes
	return d.link.StartTransfer(bytes)
}

// streamOps charges the client-side cost of ops operations issued back
// to back. The local page cache absorbs most of them; one in eight pays
// the device operation latency.
func (d *LocalDisk) streamOps(p *sim.Proc, ops int) {
	if ops <= 0 {
		return
	}
	d.stats.Ops += ops
	p.Sleep(sim.Duration(int64(d.opLat) * int64(ops) / 8))
}

// StreamWrite implements Volume.
func (d *LocalDisk) StreamWrite(p *sim.Proc, bytes int64, ops int) {
	d.streamOps(p, ops)
	d.stats.BytesWrite += bytes
	d.link.Transfer(p, bytes)
}

// StreamRead implements Volume.
func (d *LocalDisk) StreamRead(p *sim.Proc, bytes int64, ops int) {
	d.streamOps(p, ops)
	d.stats.BytesRead += bytes
	d.link.Transfer(p, bytes)
}

// LustreSpec parameterizes a shared parallel filesystem.
type LustreSpec struct {
	// AggregateBW is the total object-storage bandwidth visible to the
	// allocation, in bytes/second, shared by every node of the machine.
	AggregateBW float64
	// MDSServers is the number of metadata servers (parallel service
	// capacity for metadata operations).
	MDSServers int
	// MDSServiceTime is the service time of one metadata operation.
	MDSServiceTime sim.Duration
	// ClientLatency is the fixed client-side round-trip added to every
	// operation (network hop to the filesystem).
	ClientLatency sim.Duration
	// StreamOpCost is the per-operation metadata cost inside a batched
	// stream of small operations (StreamWrite/StreamRead): cheaper than
	// an individual round trip, but still server-side work that
	// serializes across the MDS pool. Zero defaults to
	// MDSServiceTime/2.
	StreamOpCost sim.Duration
}

// Validate reports a descriptive error for nonsensical specs.
func (s LustreSpec) Validate() error {
	if s.AggregateBW <= 0 {
		return fmt.Errorf("storage: lustre aggregate bandwidth must be positive, got %g", s.AggregateBW)
	}
	if s.MDSServers <= 0 {
		return fmt.Errorf("storage: lustre needs at least one MDS server, got %d", s.MDSServers)
	}
	return nil
}

// Lustre models a shared parallel filesystem: a metadata-server queue plus
// an aggregate object-storage bandwidth pool shared machine-wide. Heavy
// concurrent I/O from many tasks saturates the shared pool — the effect
// behind the declining Stampede speedups in Figure 6.
type Lustre struct {
	name  string
	spec  LustreSpec
	mds   *sim.Resource
	osts  *sim.SharedLink
	stats Stats
}

// NewLustre creates a shared filesystem from spec. It panics on invalid
// specs (these are programmer-supplied machine profiles, not user input).
func NewLustre(e *sim.Engine, name string, spec LustreSpec) *Lustre {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Lustre{
		name: name,
		spec: spec,
		mds:  sim.NewResource(e, spec.MDSServers),
		osts: sim.NewSharedLink(e, name+":ost", spec.AggregateBW),
	}
}

func (l *Lustre) Name() string { return l.name }

func (l *Lustre) Touch(p *sim.Proc) {
	l.stats.Ops++
	p.Sleep(l.spec.ClientLatency)
	l.mds.Acquire(p, 1)
	p.Sleep(l.spec.MDSServiceTime)
	l.mds.Release(1)
}

func (l *Lustre) Read(p *sim.Proc, bytes int64) {
	l.Touch(p)
	l.stats.BytesRead += bytes
	l.osts.Transfer(p, bytes)
}

func (l *Lustre) Write(p *sim.Proc, bytes int64) {
	l.Touch(p)
	l.stats.BytesWrite += bytes
	l.osts.Transfer(p, bytes)
}

func (l *Lustre) Stats() Stats { return l.stats }

// streamOps charges ops operations issued as one stream: the client
// pipelines requests (one round trip per window of 16), while a metadata
// server is held for the whole stream's service demand — so concurrent
// streams from many tasks contend for the MDS pool. The total metadata
// work is fixed by the data volume, which makes this component of a
// small-file shuffle essentially independent of how many tasks it is
// split over: the effect that caps the paper's plain-RP speedups.
func (l *Lustre) streamOps(p *sim.Proc, ops int) {
	if ops <= 0 {
		return
	}
	cost := l.spec.StreamOpCost
	if cost <= 0 {
		cost = l.spec.MDSServiceTime / 2
	}
	l.stats.Ops += ops
	p.Sleep(sim.Duration(int64(l.spec.ClientLatency) * int64(ops) / 16))
	l.mds.Acquire(p, 1)
	p.Sleep(sim.Duration(int64(cost) * int64(ops)))
	l.mds.Release(1)
}

// StreamWrite implements Volume.
func (l *Lustre) StreamWrite(p *sim.Proc, bytes int64, ops int) {
	l.streamOps(p, ops)
	l.stats.BytesWrite += bytes
	l.osts.Transfer(p, bytes)
}

// StreamRead implements Volume.
func (l *Lustre) StreamRead(p *sim.Proc, bytes int64, ops int) {
	l.streamOps(p, ops)
	l.stats.BytesRead += bytes
	l.osts.Transfer(p, bytes)
}

// Utilization returns the fraction of elapsed time the object stores were
// busy, given the total elapsed simulation time.
func (l *Lustre) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return l.osts.BusyTime().Seconds() / elapsed.Seconds()
}

var (
	_ Volume = (*LocalDisk)(nil)
	_ Volume = (*Lustre)(nil)
)
