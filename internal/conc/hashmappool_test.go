package conc

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHashMapPoolRecycledNodesFresh poisons hashmap chain nodes with junk
// before retiring them and checks, in the style of the Ctrie and skiplist
// pool tests, that a node handed back out by the allocator is
// indistinguishable from a freshly allocated one — no stale hash, key, value
// or chain pointer.
func TestHashMapPoolRecycledNodesFresh(t *testing.T) {
	m := NewHashMap[int, int](IntHasher)
	h := m.pool.Get()

	junk := &hmNode[int, int]{hash: 0xbad}
	poisoned := make(map[*hmNode[int, int]]bool)
	for i := 0; i < 64; i++ {
		n := h.Alloc()
		n.hash = 0xdeadbeef
		n.key = 0xdead + i
		n.val = -i
		n.next.Store(junk)
		poisoned[n] = true
		h.Retire(n)
	}
	// Age the bin out: each advance re-keys bin(); after ebrGrace+1 epochs
	// the cohort's residue class is revisited and drained.
	for i := 0; i < 3*(ebrGrace+1); i++ {
		if !m.pool.ebr.tryAdvance() {
			t.Fatal("tryAdvance failed with no pinned participants")
		}
		h.Pin()
		h.Unpin()
	}
	h.bins.expire(h.epoch(), h.drain)

	recycled := 0
	for i := 0; i < 128; i++ {
		n := h.Alloc()
		if !poisoned[n] {
			continue
		}
		recycled++
		if n.hash != 0 || n.key != 0 || n.val != 0 || n.next.Load() != nil {
			t.Fatalf("recycled node not fresh: hash=%#x key=%d val=%d next=%p",
				n.hash, n.key, n.val, n.next.Load())
		}
	}
	if recycled == 0 {
		t.Fatal("no poisoned node came back through the allocator; the test exercised nothing")
	}
}

// TestHashMapRecycledStateDeterministic runs the same deterministic script
// against a cold map and a map whose node pool has been heavily cycled, and
// requires identical observable behavior — any state bleeding through a
// recycled chain node would diverge the transcripts.
func TestHashMapRecycledStateDeterministic(t *testing.T) {
	script := func(m *HashMap[int, int]) []int {
		var out []int
		for i := 0; i < 500; i++ {
			k := (i * 7) % 64
			switch i % 4 {
			case 0:
				old, had := m.Put(k, i)
				out = append(out, k, old, boolInt(had))
			case 1:
				v, ok := m.Get(k)
				out = append(out, k, v, boolInt(ok))
			case 2:
				v, stored := m.PutIfAbsent(k, i)
				out = append(out, k, v, boolInt(stored))
			case 3:
				old, had := m.Remove(k)
				out = append(out, k, old, boolInt(had))
			}
		}
		out = append(out, m.Len())
		return out
	}

	cold := NewHashMap[int, int](IntHasher)
	want := script(cold)

	warm := NewHashMap[int, int](IntHasher)
	rng := rand.New(rand.NewSource(99))
	warmup := 100000
	if raceEnabled {
		warmup = 20000
	}
	for i := 0; i < warmup; i++ { // cycle the node pool hard, forcing growth too
		k := rng.Intn(512)
		if rng.Intn(2) == 0 {
			warm.Put(k, i)
		} else {
			warm.Remove(k)
		}
	}
	for k := 0; k < 512; k++ {
		warm.Remove(k)
	}
	got := script(warm)
	if len(got) != len(want) {
		t.Fatalf("script transcript length diverged: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("script diverged on a pool-warmed hashmap: recycled state leaked")
		}
	}
}

// TestHashMapGrowKeepsEntries crams enough keys into a 1-stripe map to force
// several bucket-table doublings and checks nothing is lost or duplicated
// across the table swaps.
func TestHashMapGrowKeepsEntries(t *testing.T) {
	m := NewHashMapStripes[int, int](IntHasher, 1)
	const n = 2000
	for i := 0; i < n; i++ {
		m.Put(i, i*3)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v after growth", i, v, ok)
		}
	}
	seen := make(map[int]int, n)
	m.Range(func(k, v int) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range yielded key %d twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range visited %d entries, want %d", len(seen), n)
	}
	if len(m.stripes) != 1 {
		t.Fatalf("1-stripe map has %d stripes", len(m.stripes))
	}
	if tbl := m.stripes[0].table.Load(); len(tbl.buckets) <= hmInitialBuckets {
		t.Fatalf("bucket table never grew: %d buckets", len(tbl.buckets))
	}
}

// TestHashMapPoolChurnReaders hammers a small key range with writers
// (Put/Remove/Update churn that recycles nodes constantly) while lock-free
// readers Get and Range through the same chains. Under -race this exercises
// the pin/retire/drain happens-before chain: a reader dereferencing a node
// recycled too early would trip the detector or observe a foreign value.
func TestHashMapPoolChurnReaders(t *testing.T) {
	m := NewHashMapStripes[int, int](IntHasher, 4)
	const writers, readers = 4, 4
	iters := 20000
	if raceEnabled {
		iters = 5000
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := rng.Intn(32)
				switch rng.Intn(3) {
				case 0:
					m.Put(k, k)
				case 1:
					m.Remove(k)
				case 2:
					m.Update(k, func(v int, ok bool) (int, bool) {
						return k, !ok || v == k
					})
				}
			}
		}(int64(w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if rng.Intn(16) == 0 {
					m.Range(func(k, v int) bool {
						if v != k {
							t.Errorf("Range saw foreign value %d under key %d", v, k)
							return false
						}
						return true
					})
					continue
				}
				k := rng.Intn(32)
				if v, ok := m.Get(k); ok && v != k {
					t.Errorf("Get(%d) returned foreign value %d", k, v)
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
}
