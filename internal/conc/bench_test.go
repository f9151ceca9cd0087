package conc

import (
	"fmt"
	"testing"
)

func BenchmarkMapsGet(b *testing.B) {
	const n = 1024
	hm := NewHashMap[int, int](IntHasher)
	ct := NewCtrie[int, int](IntHasher)
	sl := NewSkipListMap[int, int](intCmp)
	for i := 0; i < n; i++ {
		hm.Put(i, i)
		ct.Put(i, i)
		sl.Put(i, i)
	}
	b.Run("hashmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hm.Get(i % n)
		}
	})
	b.Run("ctrie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ct.Get(i % n)
		}
	})
	b.Run("skiplist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sl.Get(i % n)
		}
	})
}

func BenchmarkMapsPut(b *testing.B) {
	const n = 1024
	b.Run("hashmap", func(b *testing.B) {
		m := NewHashMap[int, int](IntHasher)
		for i := 0; i < b.N; i++ {
			m.Put(i%n, i)
		}
	})
	b.Run("ctrie", func(b *testing.B) {
		m := NewCtrie[int, int](IntHasher)
		for i := 0; i < b.N; i++ {
			m.Put(i%n, i)
		}
	})
	b.Run("skiplist", func(b *testing.B) {
		m := NewSkipListMap[int, int](intCmp)
		for i := 0; i < b.N; i++ {
			m.Put(i%n, i)
		}
	})
}

// BenchmarkCtrieSnapshot measures the constant-time snapshot at several map
// sizes — the property the lazy Proustian wrappers depend on.
func BenchmarkCtrieSnapshot(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ct := NewCtrie[int, int](IntHasher)
			for i := 0; i < n; i++ {
				ct.Put(i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := ct.Snapshot()
				_ = snap
			}
		})
	}
}

// BenchmarkCtriePutAfterSnapshot measures the lazy path-copying cost a
// writer pays right after a snapshot.
func BenchmarkCtriePutAfterSnapshot(b *testing.B) {
	ct := NewCtrie[int, int](IntHasher)
	for i := 0; i < 10000; i++ {
		ct.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ct.Snapshot()
		ct.Put(i%10000, i)
	}
}

func BenchmarkPQueueAddRemove(b *testing.B) {
	b.Run("heap-lazy-deletion", func(b *testing.B) {
		q := NewPQueue(intLess)
		for i := 0; i < b.N; i++ {
			q.Add(i % 1000)
			if i%2 == 1 {
				q.RemoveMin()
				q.RemoveMin()
			}
		}
	})
	b.Run("cow-heap", func(b *testing.B) {
		h := NewCOWHeap(intLess)
		for i := 0; i < b.N; i++ {
			h.Insert(i % 1000)
			if i%2 == 1 {
				h.RemoveMin()
				h.RemoveMin()
			}
		}
	})
}

func BenchmarkCOWHeapSnapshot(b *testing.B) {
	h := NewCOWHeap(intLess)
	for i := 0; i < 10000; i++ {
		h.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}

// BenchmarkCtrieSnapshotReplayChurn is the snapshot-map commit as it was
// before Adopt: a snapshot (the transaction's shadow), eight writes to the
// base (the commit replay, which path-copies onto nodes the snapshot
// shares), then Discard. Every node the writes displace is shared with the
// snapshot, so allocs/op counts what snapshot-lifetime recycling gets back.
func BenchmarkCtrieSnapshotReplayChurn(b *testing.B) {
	const n = 1024
	ct := NewCtrie[int, int](IntHasher)
	for i := 0; i < n; i++ {
		ct.Put(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := ct.Snapshot()
		for j := 0; j < 8; j++ {
			k := (i*8 + j) * 97 % n
			if j%4 == 3 {
				ct.Remove(k)
			} else {
				ct.Put(k, i)
			}
		}
		snap.Discard()
	}
}

// BenchmarkCtrieSnapshotAdoptChurn is the snapshot-map commit as it is
// now: a snapshot (the transaction's shadow), eight writes to it, then the
// base adopts it. The source nodes the writes displace come back through
// the snapshot's record once the base adopts it, and the snapshot's header,
// root objects and descriptors through the reader bins, so allocs/op is 0
// in steady state (TestCtrieSnapshotAllocGate gates it). In the stalled
// case one more snapshot, taken before the timer starts, stays pinned
// throughout: only the nodes it reaches may wait for it, so allocs/op is 0
// there too once those are displaced
// (TestCtrieStalledSnapshotDoesNotHoldYoungNodes gates it).
func BenchmarkCtrieSnapshotAdoptChurn(b *testing.B) {
	const n = 1024
	for _, stalled := range []bool{false, true} {
		name := "free"
		if stalled {
			name = "stalled"
		}
		b.Run(name, func(b *testing.B) {
			ct := NewCtrie[int, int](IntHasher)
			for i := 0; i < n; i++ {
				ct.Put(i, i)
			}
			if stalled {
				held := ct.Snapshot()
				defer held.Discard()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adoptCycle(ct, i, n)
			}
		})
	}
}

// BenchmarkCtrieUpdateHeavy measures pure value updates over a stable,
// prepopulated key set on the unversioned trie: every update is one CNode
// copy served from the pool.
func BenchmarkCtrieUpdateHeavy(b *testing.B) {
	const n = 1024
	ct := NewCtrieUnversioned[int, int](IntHasher)
	for i := 0; i < n; i++ {
		ct.Put(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Put(i%n, i)
	}
}

// BenchmarkCtrieChurn is the counterpoint: insert/remove churn, where every
// operation changes a CNode's shape.
func BenchmarkCtrieChurn(b *testing.B) {
	const n = 1024
	ct := NewCtrieUnversioned[int, int](IntHasher)
	for i := 0; i < n; i += 2 {
		ct.Put(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		if k%2 == 0 {
			ct.Remove(k)
			ct.Put(k, i)
		} else {
			ct.Put(k, i)
			ct.Remove(k)
		}
	}
}
