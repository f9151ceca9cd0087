package conc

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func intCmp(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func TestSkipListBasics(t *testing.T) {
	m := NewSkipListMap[int, string](intCmp)
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map should miss")
	}
	if _, had := m.Put(1, "a"); had {
		t.Fatal("Put on empty returned old value")
	}
	if v, ok := m.Get(1); !ok || v != "a" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if old, had := m.Put(1, "b"); !had || old != "a" {
		t.Fatalf("Put replace = %q,%v", old, had)
	}
	if v, ok := m.Get(1); !ok || v != "b" {
		t.Fatalf("Get after replace = %q,%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if old, had := m.Remove(1); !had || old != "b" {
		t.Fatalf("Remove = %q,%v", old, had)
	}
	if _, had := m.Remove(1); had {
		t.Fatal("second Remove should miss")
	}
	if m.Contains(1) {
		t.Fatal("Contains after Remove")
	}
}

func TestSkipListOrderedRange(t *testing.T) {
	m := NewSkipListMap[int, int](intCmp)
	perm := rand.New(rand.NewSource(1)).Perm(200)
	for _, k := range perm {
		m.Put(k, k*10)
	}
	var keys []int
	m.Range(func(k, v int) bool {
		if v != k*10 {
			t.Fatalf("value for %d = %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 200 {
		t.Fatalf("Range visited %d keys, want 200", len(keys))
	}
	if !sort.IntsAreSorted(keys) {
		t.Fatal("Range must visit keys in ascending order")
	}
}

func TestSkipListMin(t *testing.T) {
	m := NewSkipListMap[int, string](intCmp)
	if _, _, ok := m.Min(); ok {
		t.Fatal("Min on empty should miss")
	}
	m.Put(5, "five")
	m.Put(2, "two")
	m.Put(9, "nine")
	k, v, ok := m.Min()
	if !ok || k != 2 || v != "two" {
		t.Fatalf("Min = %d,%q,%v", k, v, ok)
	}
	m.Remove(2)
	if k, _, _ := m.Min(); k != 5 {
		t.Fatalf("Min after remove = %d, want 5", k)
	}
}

func TestSkipListVsOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewSkipListMap[int, int](intCmp)
		oracle := make(map[int]int)
		for i, op := range ops {
			k := int(op % 64)
			switch op % 3 {
			case 0:
				gotOld, gotHad := m.Put(k, i)
				wantOld, wantHad := oracle[k]
				oracle[k] = i
				if gotHad != wantHad || (wantHad && gotOld != wantOld) {
					return false
				}
			case 1:
				gotOld, gotHad := m.Remove(k)
				wantOld, wantHad := oracle[k]
				delete(oracle, k)
				if gotHad != wantHad || (wantHad && gotOld != wantOld) {
					return false
				}
			case 2:
				got, gotOK := m.Get(k)
				want, wantOK := oracle[k]
				if gotOK != wantOK || (wantOK && got != want) {
					return false
				}
			}
		}
		return m.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListConcurrentDisjoint(t *testing.T) {
	m := NewSkipListMap[int, int](intCmp)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * perG
			for i := 0; i < perG; i++ {
				m.Put(base+i, base+i)
			}
			for i := 0; i < perG; i++ {
				if v, ok := m.Get(base + i); !ok || v != base+i {
					t.Errorf("Get(%d) = %d,%v", base+i, v, ok)
					return
				}
			}
			for i := 0; i < perG; i += 2 {
				if _, ok := m.Remove(base + i); !ok {
					t.Errorf("Remove(%d) missed", base+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != goroutines*perG/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), goroutines*perG/2)
	}
}

func TestSkipListConcurrentSameKeys(t *testing.T) {
	m := NewSkipListMap[int, int](intCmp)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(32)
				switch rng.Intn(3) {
				case 0:
					m.Put(k, k*1000)
				case 1:
					m.Remove(k)
				case 2:
					if v, ok := m.Get(k); ok && v != k*1000 {
						t.Errorf("Get(%d) = %d, want %d", k, v, k*1000)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Structure must still be a consistent ordered map.
	var keys []int
	m.Range(func(k, v int) bool {
		keys = append(keys, k)
		return true
	})
	if !sort.IntsAreSorted(keys) {
		t.Fatal("keys out of order after concurrent churn")
	}
}

// TestSkipPoolRecycledNodesFresh poisons skiplist nodes with junk before
// retiring them and checks, in the style of the Ctrie pool tests, that a node
// handed back out by the level-classed allocator is indistinguishable from a
// freshly allocated one — no stale key, value box, next pointers, or flags.
func TestSkipPoolRecycledNodesFresh(t *testing.T) {
	m := NewSkipListMap[int, int](intCmp)
	h := m.handles.Get().(*slHandle[int, int])

	const level = 2
	junk := newSkipNode[int, int](0)
	poisoned := make(map[*skipNode[int, int]]bool)
	for i := 0; i < 64; i++ {
		n := h.newNode(level)
		n.key = 0xdead + i
		n.value.Store(&box[int]{v: -i})
		for l := range n.next {
			n.next[l].Store(junk)
		}
		n.marked.Store(true)
		n.fullyLinked.Store(true)
		poisoned[n] = true
		h.retireNode(n)
	}
	// Age the bin out: each advance re-keys bin(); after ebrGrace+1 epochs
	// the cohort's residue class is revisited and drained.
	for i := 0; i < 3*(ebrGrace+1); i++ {
		if !m.ebr.tryAdvance() {
			t.Fatal("tryAdvance failed with no pinned participants")
		}
		h.pin()
		h.unpin()
	}
	h.bins.expire(h.epoch(), h.drain)

	recycled := 0
	for i := 0; i < 128; i++ {
		n := h.newNode(level)
		if !poisoned[n] {
			continue
		}
		recycled++
		if n.key != 0 || n.value.Load() != nil || n.marked.Load() || n.fullyLinked.Load() {
			t.Fatalf("recycled node not fresh: key=%d value=%v marked=%v linked=%v",
				n.key, n.value.Load(), n.marked.Load(), n.fullyLinked.Load())
		}
		for l := range n.next {
			if n.next[l].Load() != nil {
				t.Fatalf("recycled node layer %d still points at junk", l)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no poisoned node came back through the allocator; the test exercised nothing")
	}
}

// TestSkipPoolRecycledBoxesFresh does the same for displaced value boxes, the
// skiplist's steady-state allocation residue under Put-over-existing.
func TestSkipPoolRecycledBoxesFresh(t *testing.T) {
	m := NewSkipListMap[int, int](intCmp)
	h := m.handles.Get().(*slHandle[int, int])

	poisoned := make(map[*box[int]]bool)
	for i := 0; i < 64; i++ {
		b := h.newBox(123456 + i)
		poisoned[b] = true
		h.retireBox(b)
	}
	for i := 0; i < 3*(ebrGrace+1); i++ {
		m.ebr.tryAdvance()
		h.pin()
		h.unpin()
	}
	h.bins.expire(h.epoch(), h.drain)

	recycled := 0
	for i := 0; i < 128; i++ {
		b := h.newBox(7)
		if poisoned[b] {
			recycled++
			if b.v != 7 {
				t.Fatalf("recycled box carries stale value %d, want 7", b.v)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no poisoned box came back through the allocator")
	}
}

// TestSkipListRecycledStateDeterministic runs the same deterministic script
// against a cold map and a map whose pools have been heavily cycled, and
// requires identical observable behavior — any state bleeding through a
// recycled node or box would diverge the transcripts.
func TestSkipListRecycledStateDeterministic(t *testing.T) {
	cmp := func(a, b int) int { return a - b }
	script := func(m *SkipListMap[int, int]) []int {
		var out []int
		for i := 0; i < 500; i++ {
			k := (i * 7) % 64
			switch i % 3 {
			case 0:
				old, had := m.Put(k, i)
				out = append(out, k, old, boolInt(had))
			case 1:
				v, ok := m.Get(k)
				out = append(out, k, v, boolInt(ok))
			case 2:
				old, had := m.Remove(k)
				out = append(out, k, old, boolInt(had))
			}
		}
		return out
	}

	cold := NewSkipListMap[int, int](cmp)
	want := script(cold)

	warm := NewSkipListMap[int, int](cmp)
	rng := rand.New(rand.NewSource(99))
	warmup := 100000
	if raceEnabled {
		warmup = 20000
	}
	for i := 0; i < warmup; i++ { // cycle the node and box pools hard
		k := rng.Intn(64)
		if rng.Intn(2) == 0 {
			warm.Put(k, i)
		} else {
			warm.Remove(k)
		}
	}
	for k := 0; k < 64; k++ {
		warm.Remove(k)
	}
	got := script(warm)
	if len(got) != len(want) {
		t.Fatalf("script transcript length diverged: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("script diverged on a pool-warmed skiplist: recycled state leaked")
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
