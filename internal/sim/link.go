//go:build go1.23

package sim

import (
	"fmt"
	"slices"
)

// SharedLink models a bandwidth-limited medium (disk, NIC, parallel
// filesystem backend) under processor sharing: the total rate is divided
// equally among all in-flight transfers, and the division is recomputed
// whenever a transfer starts or finishes. This fluid model captures the
// first-order contention behaviour that drives the paper's I/O results
// (e.g. Lustre saturating as shuffle volume grows) without simulating
// individual requests.
//
// A blocked Transfer parks on its process's wait slot, with no Event. One
// completion callback, built with the link, is in flight at a time:
// rescheduling records the new callback's sequence number, and a
// callback with any other number is stale and returns at once.
type SharedLink struct {
	eng  *Engine
	rate float64 // total bytes/second

	flows      []flow
	lastUpdate Duration
	fire       func() // the completion callback
	due        uint64 // sequence number of the live completion callback; 0 if none

	// Busy accumulates the virtual time during which at least one flow
	// was active; used for utilization reporting.
	busy      Duration
	moved     float64 // total bytes transferred to completion
	transfers int
}

// flow is one in-flight transfer: a blocked Transfer's wait w, or, when
// w is zero, StartTransfer's done event.
type flow struct {
	size      float64
	remaining float64
	w         wait
	done      *Event
}

// NewSharedLink creates a link with the given total bandwidth in
// bytes/second.
func NewSharedLink(e *Engine, name string, bytesPerSec float64) *SharedLink {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: link %q bandwidth must be positive, got %g", name, bytesPerSec))
	}
	l := &SharedLink{eng: e, rate: bytesPerSec}
	l.fire = func() {
		if l.eng.cbSeq == l.due {
			l.complete()
		}
	}
	return l
}

// Active returns the number of in-flight transfers.
func (l *SharedLink) Active() int { return len(l.flows) }

// BusyTime returns the cumulative virtual time with at least one active
// transfer, up to the last flow-set change.
func (l *SharedLink) BusyTime() Duration { return l.busy }

// BytesMoved returns the total bytes of completed transfers.
func (l *SharedLink) BytesMoved() float64 { return l.moved }

// Transfers returns the number of completed transfers.
func (l *SharedLink) Transfers() int { return l.transfers }

// Transfer moves bytes across the link, blocking p until the transfer
// completes under fair sharing with all concurrent transfers. Zero or
// negative sizes return immediately.
func (l *SharedLink) Transfer(p *Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	l.advance()
	w := p.arm()
	l.flows = append(l.flows, flow{size: float64(bytes), remaining: float64(bytes), w: w})
	l.reschedule()
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		// The transfer was interrupted: abort the flow so it stops
		// consuming bandwidth.
		l.advance()
		for i := range l.flows {
			if l.flows[i].w == w {
				l.flows = slices.Delete(l.flows, i, i+1)
				break
			}
		}
		l.reschedule()
		panic(e)
	}()
	p.park()
}

// StartTransfer begins a transfer and returns an event that triggers on
// completion, for callers that want to overlap I/O with other work.
func (l *SharedLink) StartTransfer(bytes int64) *Event {
	ev := NewEvent(l.eng)
	if bytes <= 0 {
		ev.Trigger()
		return ev
	}
	l.advance()
	l.flows = append(l.flows, flow{size: float64(bytes), remaining: float64(bytes), done: ev})
	l.reschedule()
	return ev
}

// advance applies progress accumulated since the last flow-set change.
func (l *SharedLink) advance() {
	now := l.eng.Now()
	elapsed := (now - l.lastUpdate).Seconds()
	l.lastUpdate = now
	n := len(l.flows)
	if n == 0 || elapsed <= 0 {
		return
	}
	l.busy += Seconds(elapsed)
	per := l.rate / float64(n) * elapsed
	for i := range l.flows {
		f := &l.flows[i]
		f.remaining -= per
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule plans the next completion callback for the earliest-finishing
// flow, invalidating any previously scheduled callback.
func (l *SharedLink) reschedule() {
	l.due = 0
	n := len(l.flows)
	if n == 0 {
		return
	}
	minRem := l.flows[0].remaining
	for _, f := range l.flows[1:] {
		if f.remaining < minRem {
			minRem = f.remaining
		}
	}
	perFlowRate := l.rate / float64(n)
	dt := Seconds(minRem / perFlowRate)
	if dt <= 0 {
		// Sub-nanosecond completion: virtual time is integral
		// nanoseconds, so force a minimal step to guarantee progress.
		dt = 1
	}
	l.due = l.eng.after(dt, l.eng.curDaemon, l.fire)
}

// complete finishes all flows that have (numerically) run out of bytes.
func (l *SharedLink) complete() {
	l.advance()
	if len(l.flows) == 0 {
		return
	}
	// A flow whose remainder cannot absorb one nanosecond of progress is
	// done: virtual time cannot resolve anything finer, and scheduling
	// callbacks below that granularity would livelock on fast links.
	eps := l.rate / float64(len(l.flows)) * 1e-9
	if eps < 1e-3 {
		eps = 1e-3 // transfers are whole bytes; rates can be tiny in tests
	}
	kept := l.flows[:0]
	for _, f := range l.flows {
		if f.remaining <= eps {
			l.moved += f.size
			l.transfers++
			if f.w.p != nil {
				l.eng.signal(f.w)
			} else {
				f.done.Trigger()
			}
		} else {
			kept = append(kept, f)
		}
	}
	// Zero trailing slots so finished flows are collectable.
	clear(l.flows[len(kept):])
	l.flows = kept
	l.reschedule()
}
