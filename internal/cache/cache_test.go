package cache

import (
	"errors"
	"fmt"
	"testing"
)

func ref(name string, size int64) ObjectRef { return ObjectRef{Name: name, SizeBytes: size} }

func mustKey(t *testing.T, exe string, args []string, in, out []ObjectRef) Key {
	t.Helper()
	k, err := DigestKey(exe, args, in, out)
	if err != nil {
		t.Fatalf("DigestKey(%s) = %v", exe, err)
	}
	return k
}

// TestDigestKeyOrderStable: permuted-but-equal descriptions collide to
// the same key — the declaration order of Inputs and Outputs is not
// part of a unit's identity.
func TestDigestKeyOrderStable(t *testing.T) {
	in := []ObjectRef{ref("/d/a", 1), ref("/d/b", 2), ref("/d/c", 3)}
	out := []ObjectRef{ref("/o/x", 4), ref("/o/y", 5)}
	k1 := mustKey(t, "/bin/f", []string{"-v"}, in, out)
	k2 := mustKey(t, "/bin/f", []string{"-v"},
		[]ObjectRef{ref("/d/c", 3), ref("/d/a", 1), ref("/d/b", 2)},
		[]ObjectRef{ref("/o/y", 5), ref("/o/x", 4)})
	if k1 != k2 {
		t.Errorf("permuted refs changed the key: %v vs %v", k1, k2)
	}
	// The original slices must not be reordered as a side effect.
	if in[0].Name != "/d/a" || out[0].Name != "/o/x" {
		t.Error("DigestKey mutated its argument slices")
	}
}

// TestDigestKeyPinned: content addresses are stable across releases —
// the hex digests below were computed by the original hash.Hash-based
// DigestKey, and cached results and trace lines (Key.Short) depend on
// them staying byte-identical. The last case outgrows any fixed-size
// scratch buffer.
func TestDigestKeyPinned(t *testing.T) {
	args := []string{"-v", "--n=3"}
	in := []ObjectRef{ref("/d/a", 1), ref("/d/b", 2), ref("/d/c", 3)}
	out := []ObjectRef{ref("/o/x", 4), ref("/o/y", 5)}
	var big []ObjectRef
	for i := 40; i > 0; i-- {
		big = append(big, ref(fmt.Sprintf("/data/partition/%03d/part-%05d.parquet", i%7, i), int64(i)<<20))
	}
	const small = "27cf89d40c1545e78d52f1ecc57e0b77696949231cbcd38eb49104b43aefbfee"
	for _, c := range []struct {
		name, want string
		key        Key
	}{
		{"small", small, mustKey(t, "/bin/f", args, in, out)},
		{"permuted", small, mustKey(t, "/bin/f", args,
			[]ObjectRef{in[2], in[0], in[1]}, []ObjectRef{out[1], out[0]})},
		{"same name, two sizes", "068b4977169cceaa1cf3bd09fd4424392e4fc4ec277a575b72378b37c157652a",
			mustKey(t, "/bin/f", args, []ObjectRef{in[2], in[1], in[0], ref("/d/a", 0)}, []ObjectRef{out[1], out[0]})},
		{"40 inputs", "0885009244ea7ffcd578cd676488052df4ef05643f41a77836b43a1d617630ff",
			mustKey(t, "/bin/reduce", []string{"--all"}, big, big[:3])},
	} {
		if got := c.key.String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
	if got := mustKey(t, "/bin/f", args, in, out).Short(); got != small[:8] {
		t.Errorf("Short() = %s, want %s", got, small[:8])
	}
}

// TestDigestKeySensitivity: every identity-bearing field moves the key,
// and adjacent fields cannot blur into each other.
func TestDigestKeySensitivity(t *testing.T) {
	base := mustKey(t, "/bin/f", []string{"a", "b"}, []ObjectRef{ref("/d/a", 1)}, []ObjectRef{ref("/o/x", 4)})
	for name, k := range map[string]Key{
		"executable": mustKey(t, "/bin/g", []string{"a", "b"}, []ObjectRef{ref("/d/a", 1)}, []ObjectRef{ref("/o/x", 4)}),
		"args":       mustKey(t, "/bin/f", []string{"a", "c"}, []ObjectRef{ref("/d/a", 1)}, []ObjectRef{ref("/o/x", 4)}),
		"arg split":  mustKey(t, "/bin/f", []string{"ab"}, []ObjectRef{ref("/d/a", 1)}, []ObjectRef{ref("/o/x", 4)}),
		"input name": mustKey(t, "/bin/f", []string{"a", "b"}, []ObjectRef{ref("/d/b", 1)}, []ObjectRef{ref("/o/x", 4)}),
		"input size": mustKey(t, "/bin/f", []string{"a", "b"}, []ObjectRef{ref("/d/a", 2)}, []ObjectRef{ref("/o/x", 4)}),
		"outputs":    mustKey(t, "/bin/f", []string{"a", "b"}, []ObjectRef{ref("/d/a", 1)}, []ObjectRef{ref("/o/y", 4)}),
		"no inputs":  mustKey(t, "/bin/f", []string{"a", "b"}, nil, []ObjectRef{ref("/o/x", 4)}),
	} {
		if k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestDigestKeyUncacheable: a unit with no declared outputs has no
// replayable result; the sentinel chain is errors.Is-matchable.
func TestDigestKeyUncacheable(t *testing.T) {
	_, err := DigestKey("/bin/f", nil, []ObjectRef{ref("/d/a", 1)}, nil)
	if !errors.Is(err, ErrNoOutputs) {
		t.Errorf("no outputs: err = %v, want ErrNoOutputs", err)
	}
	if !errors.Is(err, ErrUncacheable) {
		t.Errorf("ErrNoOutputs does not wrap ErrUncacheable: %v", err)
	}
}

// TestLRUEvictionOrder: the byte bound evicts strictly least recently
// used, Get refreshes recency, and the evicted entries come back to the
// caller for side effects.
func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU[string, int](100)
	l.Put("a", 1, 40)
	l.Put("b", 2, 40)
	if _, ok := l.Get("a"); !ok { // refresh a: b is now the oldest
		t.Fatal("a missing")
	}
	evicted, stored := l.Put("c", 3, 40)
	if !stored {
		t.Fatal("c rejected")
	}
	if len(evicted) != 1 || evicted[0].Key != "b" || evicted[0].SizeBytes != 40 {
		t.Fatalf("evicted %v, want [b/40]", evicted)
	}
	if _, ok := l.Peek("a"); !ok {
		t.Error("refreshed entry evicted instead of the oldest")
	}
	if l.Len() != 2 || l.UsedBytes() != 80 {
		t.Errorf("len/used = %d/%d, want 2/80", l.Len(), l.UsedBytes())
	}
}

// TestLRUOversizeAndReplace: an entry larger than the whole capacity is
// rejected without disturbing the cache; replacing an entry adjusts the
// byte accounting.
func TestLRUOversizeAndReplace(t *testing.T) {
	l := NewLRU[string, int](100)
	l.Put("a", 1, 60)
	if _, stored := l.Put("huge", 9, 101); stored {
		t.Error("entry beyond the whole capacity was stored")
	}
	if l.Len() != 1 || l.UsedBytes() != 60 {
		t.Errorf("rejected Put disturbed the cache: len/used = %d/%d", l.Len(), l.UsedBytes())
	}
	if evicted, _ := l.Put("a", 2, 90); len(evicted) != 0 {
		t.Errorf("replacing the only entry evicted %v", evicted)
	}
	if l.UsedBytes() != 90 {
		t.Errorf("replace did not adjust bytes: %d", l.UsedBytes())
	}
	if v, _ := l.Peek("a"); v != 2 {
		t.Errorf("replace kept the old value: %d", v)
	}
}

// TestLRURemoveOldest: the external-eviction hook drains in recency
// order and reports emptiness.
func TestLRURemoveOldest(t *testing.T) {
	l := NewLRU[string, int](0) // unbounded: recency list only
	l.Put("a", 1, 10)
	l.Put("b", 2, 10)
	l.Put("c", 3, 10)
	l.Get("a")
	want := []string{"b", "c", "a"}
	for _, w := range want {
		ent, ok := l.RemoveOldest()
		if !ok || ent.Key != w {
			t.Fatalf("RemoveOldest = %v/%v, want %s", ent.Key, ok, w)
		}
	}
	if _, ok := l.RemoveOldest(); ok {
		t.Error("RemoveOldest on empty reported an entry")
	}
	if l.Len() != 0 || l.UsedBytes() != 0 {
		t.Errorf("drained cache not empty: len/used = %d/%d", l.Len(), l.UsedBytes())
	}
}

// TestResultCacheSingleflight: the first Acquire leads, identical ones
// coalesce, Complete caches and hands back the waiters in arrival
// order, and later Acquires hit.
func TestResultCacheSingleflight(t *testing.T) {
	c := NewResultCache[string, int](1 << 20)
	k := mustKey(t, "/bin/f", nil, nil, []ObjectRef{ref("/o/x", 4)})
	if o, _ := c.Acquire(k, 0); o != Leader {
		t.Fatalf("first Acquire = %v, want leader", o)
	}
	for i := 1; i <= 3; i++ {
		if o, _ := c.Acquire(k, i); o != Coalesced {
			t.Fatalf("Acquire %d = %v, want coalesced", i, o)
		}
	}
	if st := c.Stats(); st.InFlight != 1 || st.Waiting != 3 {
		t.Errorf("in flight/waiting = %d/%d, want 1/3", st.InFlight, st.Waiting)
	}
	waiters := c.Complete(k, "result", 64)
	if len(waiters) != 3 || waiters[0] != 1 || waiters[2] != 3 {
		t.Fatalf("waiters = %v, want [1 2 3]", waiters)
	}
	o, v := c.Acquire(k, 9)
	if o != Hit || v != "result" {
		t.Errorf("post-complete Acquire = %v/%q, want hit/result", o, v)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 3 || st.Completions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.InFlight != 0 || st.Waiting != 0 || st.Entries != 1 || st.UsedBytes != 64 {
		t.Errorf("gauges = %+v", st)
	}
}

// TestResultCacheAbort: a failed leader caches nothing and releases its
// waiters — the next Acquire of the key leads again, never hits.
func TestResultCacheAbort(t *testing.T) {
	c := NewResultCache[string, int](1 << 20)
	k := mustKey(t, "/bin/f", nil, nil, []ObjectRef{ref("/o/x", 4)})
	c.Acquire(k, 0)
	c.Acquire(k, 1)
	waiters := c.Abort(k)
	if len(waiters) != 1 || waiters[0] != 1 {
		t.Fatalf("aborted waiters = %v, want [1]", waiters)
	}
	if o, _ := c.Acquire(k, 2); o != Leader {
		t.Errorf("Acquire after abort = %v, want leader (no poisoned entry)", o)
	}
	st := c.Stats()
	if st.Aborts != 1 || st.Entries != 0 {
		t.Errorf("stats after abort = %+v", st)
	}
}

// TestResultCacheEvictionCounter: completes past the byte bound bump
// the eviction counter and drop the oldest results.
func TestResultCacheEvictionCounter(t *testing.T) {
	c := NewResultCache[string, int](100)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = mustKey(t, "/bin/f", []string{string(rune('a' + i))}, nil, []ObjectRef{ref("/o/x", 4)})
		c.Acquire(keys[i], 0)
		c.Complete(keys[i], "r", 40)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.UsedBytes != 80 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries, 80 bytes", st)
	}
	if o, _ := c.Acquire(keys[0], 0); o != Leader {
		t.Errorf("evicted key Acquire = %v, want leader", o)
	}
	// keys[0] is now in flight again; settle it to keep the table clean.
	c.Abort(keys[0])
}
