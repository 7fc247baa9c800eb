// Package cache is the content-addressed caching subsystem: a
// deterministic digest over what a Compute-Unit computes (Key), a
// byte-bounded LRU (LRU), and a result cache with singleflight
// coalescing of concurrent identical requests (ResultCache).
//
// The package is a leaf — it imports neither internal/core nor
// internal/data — so both sides can build on it: the Unit-Manager's
// result cache (core.WithResultCache) and the Pilot-Data layer's
// opportunistic replica cache share the one LRU policy defined here.
//
// Everything in this package is plain bookkeeping: no virtual time
// passes inside any call, and iteration never touches map order, so a
// simulation using it stays deterministic per seed.
package cache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
)

// Key is the content address of a Compute-Unit's result: a SHA-256
// digest over the fields that determine what the unit computes. Two
// descriptions with equal keys are interchangeable as far as their
// declared outputs go.
type Key [sha256.Size]byte

// String renders the full hex digest.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short renders the first eight hex digits — the form trace lines use.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// Sentinel errors for units that have no cacheable identity. Callers
// match the base with errors.Is and fall back to ordinary execution.
var (
	// ErrUncacheable is the base sentinel: the description cannot be
	// given a result-cache key, so every submission of it executes.
	ErrUncacheable = errors.New("cache: unit is uncacheable")

	// ErrNoOutputs marks the common case: a unit that declares no
	// output Data-Units has no result the cache could replay, so it is
	// uncacheable. Wraps ErrUncacheable.
	ErrNoOutputs = fmt.Errorf("%w: no declared outputs", ErrUncacheable)
)

// ObjectRef identifies one Data-Unit by logical name and size — the
// portion of a Data-Unit's identity that participates in a Key. Replica
// placement deliberately does not: where the bytes live never changes
// what a unit computes.
type ObjectRef struct {
	Name      string
	SizeBytes int64
}

// DigestKey derives the content address of a unit from its executable,
// arguments, input objects and declared output objects. Resource
// demands (cores, memory, launch method) are excluded: they change how
// fast a unit runs, never what it produces. Inputs and Outputs are
// sorted by name (then size) before digesting, so permuted-but-equal
// descriptions collide to the same key. A unit with no declared outputs
// has no replayable result and yields ErrNoOutputs.
func DigestKey(executable string, args []string, inputs, outputs []ObjectRef) (Key, error) {
	if len(outputs) == 0 {
		return Key{}, ErrNoOutputs
	}
	// The fields are appended into one buffer, on the stack for the
	// usual description size, and hashed in one call.
	var stack [1024]byte
	b := appendStr(stack[:0], "unitkey/v1")
	b = appendStr(b, executable)
	b = appendInt(b, int64(len(args)))
	for _, a := range args {
		b = appendStr(b, a)
	}
	b = appendRefs(b, inputs)
	b = appendRefs(b, outputs)
	return sha256.Sum256(b), nil
}

// appendInt appends v as eight little-endian bytes.
func appendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendStr appends s length-prefixed, so adjacent fields can never blur
// into each other ("ab"+"c" vs "a"+"bc").
func appendStr(b []byte, s string) []byte {
	return append(appendInt(b, int64(len(s))), s...)
}

// appendRefs appends the count and then each ref in (name, size) order —
// the digest must not depend on declaration order. refs itself is left
// as it is: a sorted copy is made, on the stack for up to 16 refs.
func appendRefs(b []byte, refs []ObjectRef) []byte {
	var stack [16]ObjectRef
	sorted := append(stack[:0], refs...)
	slices.SortFunc(sorted, func(x, y ObjectRef) int {
		if c := cmp.Compare(x.Name, y.Name); c != 0 {
			return c
		}
		return cmp.Compare(x.SizeBytes, y.SizeBytes)
	})
	b = appendInt(b, int64(len(sorted)))
	for _, r := range sorted {
		b = appendInt(appendStr(b, r.Name), r.SizeBytes)
	}
	return b
}
