package conc

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }
func intEq(a, b int) bool   { return a == b }

func TestPQueueOrdering(t *testing.T) {
	q := NewPQueue(intLess)
	in := []int{5, 1, 4, 1, 3, 9, 2}
	for _, v := range in {
		q.Add(v)
	}
	if q.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(in))
	}
	want := append([]int(nil), in...)
	sort.Ints(want)
	got := q.Drain()
	if len(got) != len(want) {
		t.Fatalf("Drain returned %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain[%d] = %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestPQueueMinDoesNotRemove(t *testing.T) {
	q := NewPQueue(intLess)
	q.Add(2)
	q.Add(1)
	for i := 0; i < 3; i++ {
		if v, ok := q.Min(); !ok || v != 1 {
			t.Fatalf("Min = %d,%v want 1,true", v, ok)
		}
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestPQueueEmpty(t *testing.T) {
	q := NewPQueue(intLess)
	if _, ok := q.Min(); ok {
		t.Fatal("Min on empty should miss")
	}
	if _, ok := q.RemoveMin(); ok {
		t.Fatal("RemoveMin on empty should miss")
	}
	if q.Len() != 0 {
		t.Fatal("Len on empty should be 0")
	}
}

func TestPQueueLazyDeletion(t *testing.T) {
	q := NewPQueue(intLess)
	it1 := q.Add(1)
	q.Add(2)
	q.Add(3)
	// Logically delete the minimum: it must be skipped.
	it1.Delete()
	q.NoteDeleted()
	if q.Len() != 2 {
		t.Fatalf("Len after lazy delete = %d, want 2", q.Len())
	}
	if v, ok := q.Min(); !ok || v != 2 {
		t.Fatalf("Min = %d,%v want 2,true (deleted item skipped)", v, ok)
	}
	if q.Contains(1, intEq) {
		t.Fatal("Contains must skip deleted items")
	}
	if !q.Contains(3, intEq) {
		t.Fatal("Contains(3) should hit")
	}
}

func TestPQueueReAddItemAsInverse(t *testing.T) {
	// RemoveMin's inverse is AddItem: the wrapper returns with its deleted
	// mark cleared.
	q := NewPQueue(intLess)
	q.Add(1)
	q.Add(2)
	it, ok := q.RemoveMin()
	if !ok || it.Value != 1 {
		t.Fatalf("RemoveMin = %v,%v", it, ok)
	}
	q.AddItem(it)
	if v, ok := q.Min(); !ok || v != 1 {
		t.Fatalf("Min after inverse = %d,%v want 1,true", v, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestPQueueVsSortedOracle(t *testing.T) {
	f := func(vals []int16) bool {
		q := NewPQueue(intLess)
		for _, v := range vals {
			q.Add(int(v))
		}
		want := make([]int, len(vals))
		for i, v := range vals {
			want[i] = int(v)
		}
		sort.Ints(want)
		got := q.Drain()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPQueueConcurrent(t *testing.T) {
	q := NewPQueue(intLess)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				q.Add(rng.Intn(1000))
			}
		}(int64(g))
	}
	wg.Wait()
	if q.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", q.Len(), goroutines*perG)
	}
	// Concurrent removals drain exactly everything, in globally
	// non-decreasing order per goroutine.
	var removed sync.Map
	var total sync.WaitGroup
	count := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		total.Add(1)
		go func(g int) {
			defer total.Done()
			prev := -1
			for {
				it, ok := q.RemoveMin()
				if !ok {
					return
				}
				if it.Value < prev {
					t.Errorf("goroutine %d observed decreasing mins %d after %d", g, it.Value, prev)
					return
				}
				prev = it.Value
				count[g]++
				removed.Store(it, true)
			}
		}(g)
	}
	total.Wait()
	sum := 0
	for _, c := range count {
		sum += c
	}
	if sum != goroutines*perG {
		t.Fatalf("drained %d items, want %d", sum, goroutines*perG)
	}
}

func TestCOWHeapBasics(t *testing.T) {
	h := NewCOWHeap(intLess)
	if _, ok := h.Min(); ok {
		t.Fatal("Min on empty should miss")
	}
	if _, ok := h.RemoveMin(); ok {
		t.Fatal("RemoveMin on empty should miss")
	}
	h.Insert(3)
	h.Insert(1)
	h.Insert(2)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if v, ok := h.Min(); !ok || v != 1 {
		t.Fatalf("Min = %d,%v", v, ok)
	}
	for want := 1; want <= 3; want++ {
		if v, ok := h.RemoveMin(); !ok || v != want {
			t.Fatalf("RemoveMin = %d,%v want %d", v, ok, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

func TestCOWHeapContains(t *testing.T) {
	h := NewCOWHeap(intLess)
	for _, v := range []int{5, 3, 8} {
		h.Insert(v)
	}
	if !h.Contains(8, intEq) || h.Contains(7, intEq) {
		t.Fatal("Contains mismatch")
	}
}

func TestCOWHeapSnapshotIsolation(t *testing.T) {
	h := NewCOWHeap(intLess)
	h.Insert(2)
	h.Insert(4)
	snap := h.Snapshot()

	// Mutate the original: snapshot unaffected.
	h.Insert(1)
	if v, _ := h.Min(); v != 1 {
		t.Fatalf("heap Min = %d, want 1", v)
	}
	if v, _ := snap.Min(); v != 2 {
		t.Fatalf("snapshot Min = %d, want 2 (isolated)", v)
	}

	// Mutate the snapshot: original unaffected.
	snap.Insert(0)
	if got, _ := snap.RemoveMin(); got != 0 {
		t.Fatalf("snapshot RemoveMin = %d, want 0", got)
	}
	if v, _ := h.Min(); v != 1 {
		t.Fatalf("heap Min after snapshot mutation = %d, want 1", v)
	}
	if snap.Len() != 2 {
		t.Fatalf("snapshot Len = %d, want 2", snap.Len())
	}
	if !snap.Contains(4, intEq) {
		t.Fatal("snapshot should contain 4")
	}
}

// TestCOWHeapAdopt: the heap takes over a snapshot's contents, and refuses a
// snapshot taken before the heap last moved.
func TestCOWHeapAdopt(t *testing.T) {
	h := NewCOWHeap(intLess)
	h.Insert(2)
	h.Insert(4)
	snap, stale := h.Snapshot(), h.Snapshot()
	snap.Insert(3)
	snap.RemoveMin()
	h.Adopt(snap)
	if v, _ := h.Min(); v != 3 || h.Len() != 2 || h.Contains(2, intEq) {
		t.Fatalf("after Adopt: Min = %d, Len = %d", v, h.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Adopt accepted a snapshot whose source had moved")
			}
		}()
		h.Adopt(stale)
	}()
}

func TestCOWHeapVsSortedOracle(t *testing.T) {
	f := func(vals []int16) bool {
		h := NewCOWHeap(intLess)
		for _, v := range vals {
			h.Insert(int(v))
		}
		want := make([]int, len(vals))
		for i, v := range vals {
			want[i] = int(v)
		}
		sort.Ints(want)
		for _, w := range want {
			v, ok := h.RemoveMin()
			if !ok || v != w {
				return false
			}
		}
		_, ok := h.RemoveMin()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCOWHeapConcurrent(t *testing.T) {
	h := NewCOWHeap(intLess)
	const goroutines = 8
	const perG = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Insert(g*perG + i)
			}
		}(g)
	}
	wg.Wait()
	if h.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", h.Len(), goroutines*perG)
	}
	var mu sync.Mutex
	seen := make(map[int]bool)
	wg = sync.WaitGroup{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := h.RemoveMin()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d removed twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*perG {
		t.Fatalf("drained %d unique values, want %d", len(seen), goroutines*perG)
	}
}
