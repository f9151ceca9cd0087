package conc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCtriePoolAliasingConcurrent is the pool-aliasing regression: a node
// that is retired twice, or recycled while still reachable, is handed out
// to two owners, published under two keys, and the second owner's stores
// tear the first key's box. Writers hammer a handful of keys (updates,
// remove + re-insert) while snapshots keep flipping the generation, so
// displacements alternate between retiring (same generation) and leaving
// alone (shared with a snapshot); readers check the live trie and the
// snapshots.
// Invariant: every value ever stored under key k satisfies v % keys == k.
func TestCtriePoolAliasingConcurrent(t *testing.T) {
	ct := NewCtrie[int, int](IntHasher)
	const keys = 8
	for k := 0; k < keys; k++ {
		ct.Put(k, k)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var bad atomic.Pointer[string]
	report := func(msg string) { s := msg; bad.CompareAndSwap(nil, &s) }
	check := func(where string, k, v int) {
		if v%keys != k {
			report(where + ": value from another key's space (aliased/torn box)")
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(keys)
				switch rng.Intn(4) {
				case 0, 1, 2: // mostly updates of present keys
					if old, had := ct.Put(k, k+keys*(1+rng.Intn(1000))); had {
						check("Put old", k, old)
					}
				case 3:
					if old, had := ct.Remove(k); had {
						check("Remove old", k, old)
					}
					ct.Put(k, k+keys*(1+rng.Intn(1000)))
				}
			}
		}(int64(w + 1))
	}
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for k := 0; k < keys; k++ {
					if v, ok := ct.Get(k); ok {
						check("Get", k, v)
					}
				}
				ct.Range(func(k, v int) bool { // takes a read-only snapshot
					check("Range", k, v)
					return true
				})
				// A private shadow: written, read back, handed back.
				sh := ct.Snapshot()
				for k := 0; k < keys; k += 2 {
					sh.Put(k, k+keys*7)
				}
				for k := 0; k < keys; k++ {
					if v, ok := sh.Get(k); ok {
						check("shadow Get", k, v)
					}
				}
				sh.Discard()
			}
		}()
	}
	d := 2 * time.Second
	if testing.Short() {
		d = 500 * time.Millisecond
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	if p := bad.Load(); p != nil {
		t.Fatal(*p)
	}
}
