package obs

import (
	"math"
	"time"
)

// eventRecord is one event as the recorder stores it: 56 bytes with no
// pointer, string or slice field, so a block of them is allocated
// without pointer bitmaps and never scanned by the garbage collector.
// The sequence number is the record's position in the log. Strings are
// indexes into the recorder's tables: ent into the entity table (a
// unit's or Data-Unit's ID and name, stored once per entity), pilot and
// policy into the intern table, state and op into the one-byte table,
// detail (plus one; 0 is "") into the side table of free text.
type eventRecord struct {
	at     time.Duration
	n      int64 // Bytes, or Critical's bits under flagCritical
	ent    int32 // entity; the raws index under flagRaw
	pilot  int32
	policy int32
	detail int32
	// ints are Cores, Nodes, Waiting and Running. An autoscale verdict's
	// Delta and Applied have no slot: such events are kept whole.
	ints  [4]int32
	kind  Kind
	state uint8
	op    uint8
	flags uint8
}

// record flags.
const (
	flagData     = 1 << iota // the entity is the Data-Unit, not the Compute-Unit
	flagCritical             // n holds math.Float64bits(Critical)
	flagRaw                  // the event is raws[ent]; only at is set
)

// entity is a Compute-Unit's or Data-Unit's ID with the name its events
// carry.
type entity struct{ id, name string }

// encode packs ev into a record. An event a record cannot hold exactly
// — an autoscale verdict's deltas, both a unit and a Data-Unit, both
// bytes and a critical-path length, an int beyond 32 bits or more than
// 255 distinct states and ops — is kept whole in the raws side table
// instead, so decoding always gives back ev.
func (r *Recorder) encode(ev *Event) eventRecord {
	rec := eventRecord{at: ev.At, kind: ev.Kind}
	ok := (ev.Unit == "" || ev.Data == "") && ev.Delta == 0 && ev.Applied == 0
	if ev.Data != "" {
		rec.flags |= flagData
		rec.ent = r.entity(ev.Data, ev.Name)
	} else {
		rec.ent = r.entity(ev.Unit, ev.Name)
	}
	rec.pilot = r.intern(ev.Pilot)
	rec.policy = r.intern(ev.Policy)
	var okState, okOp bool
	rec.state, okState = r.internSmall(ev.State)
	rec.op, okOp = r.internSmall(ev.Op)
	ok = ok && okState && okOp
	for i, v := range [4]int{ev.Cores, ev.Nodes, ev.Waiting, ev.Running} {
		rec.ints[i] = int32(v)
		ok = ok && int(rec.ints[i]) == v
	}
	rec.n = ev.Bytes
	if ev.Critical != 0 {
		rec.flags |= flagCritical
		rec.n = int64(math.Float64bits(ev.Critical))
		ok = ok && ev.Bytes == 0
	}
	if !ok {
		r.raws = append(r.raws, *ev)
		return eventRecord{at: ev.At, kind: ev.Kind, ent: int32(len(r.raws) - 1), flags: flagRaw}
	}
	if ev.Detail != "" {
		r.texts = append(r.texts, ev.Detail)
		rec.detail = int32(len(r.texts))
	}
	return rec
}

// decode unpacks rec, the seq-th record, into ev, which must be zero.
func (r *Recorder) decode(rec *eventRecord, seq int, ev *Event) {
	if rec.flags&flagRaw != 0 {
		*ev = r.raws[rec.ent]
		ev.Seq, ev.At = seq, rec.at
		return
	}
	ev.Seq, ev.At, ev.Kind = seq, rec.at, rec.kind
	e := &r.ents[rec.ent]
	if rec.flags&flagData != 0 {
		ev.Data = e.id
	} else {
		ev.Unit = e.id
	}
	ev.Name, ev.Pilot, ev.Policy = e.name, r.strs[rec.pilot], r.strs[rec.policy]
	ev.State, ev.Op = r.small[rec.state], r.small[rec.op]
	ev.Cores, ev.Nodes = int(rec.ints[0]), int(rec.ints[1])
	ev.Waiting, ev.Running = int(rec.ints[2]), int(rec.ints[3])
	if rec.flags&flagCritical != 0 {
		ev.Critical = math.Float64frombits(uint64(rec.n))
	} else {
		ev.Bytes = rec.n
	}
	if rec.detail != 0 {
		ev.Detail = r.texts[rec.detail-1]
	}
}

// entity returns the index of the (id, name) entity, adding it on first
// use. An event naming its entity differently (a graph node's name, say)
// gets an entity of its own; the ID's first name keeps its place in
// entIdx.
func (r *Recorder) entity(id, name string) int32 {
	if id == "" && name == "" {
		return 0
	}
	i, ok := r.entIdx[id]
	if ok && r.ents[i].name == name {
		return i
	}
	r.ents = append(r.ents, entity{id, name})
	i = int32(len(r.ents) - 1)
	if !ok {
		r.entIdx[id] = i
	}
	return i
}

// intern returns s's index in the intern table, adding it on first
// use. The table holds each distinct pilot ID, data-pilot label and
// policy name once, however many events carry it.
func (r *Recorder) intern(s string) int32 {
	if s == "" {
		return 0
	}
	i, ok := r.strIdx[s]
	if !ok {
		i = int32(len(r.strs))
		r.strs = append(r.strs, s)
		r.strIdx[s] = i
	}
	return i
}

// internSmall returns s's index in the one-byte table of states and
// ops; ok is false once the table is full.
func (r *Recorder) internSmall(s string) (uint8, bool) {
	if s == "" {
		return 0, true
	}
	i, ok := r.smallIx[s]
	if !ok {
		if len(r.small) > math.MaxUint8 {
			return 0, false
		}
		i = uint8(len(r.small))
		r.small = append(r.small, s)
		r.smallIx[s] = i
	}
	return i, true
}
