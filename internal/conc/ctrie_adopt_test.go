package conc

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// This file pins Adopt: a trie taking over a mutable snapshot of itself in
// O(1). The adopted trie must hold exactly what replaying the snapshot's
// writes onto it would have produced; the nodes the snapshot displaced from
// its source must wait for the snapshots taken before the adoption, and then
// come back through the pools; readers of the trie run throughout; and a
// snapshot whose source has moved on is refused.

// contents returns everything ct holds, read through Range.
func contents(ct *Ctrie[int, int]) map[int]int {
	m := map[int]int{}
	ct.Range(func(k, v int) bool {
		m[k] = v
		return true
	})
	return m
}

// mustPanic reports whether f panicked.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestCtrieAdoptMatchesReplay runs random batches of writes twice: into a
// snapshot that the trie then adopts, and directly onto a second trie (what
// a commit used to replay). Both tries, their return values and their
// models must agree after every batch; empty batches are adopted too.
func TestCtrieAdoptMatchesReplay(t *testing.T) {
	const keyRange = 300 // three levels in places
	batches := 300
	if raceEnabled {
		batches = 60
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		adopted := viewOf(NewCtrie[int, int](IntHasher), nil)
		replayed := viewOf(NewCtrie[int, int](IntHasher), nil)
		for b := 0; b < batches; b++ {
			snap := viewOf(adopted.ct.Snapshot(), adopted.model)
			for n := rng.Intn(24); n > 0; n-- {
				k := rng.Intn(keyRange)
				var msg, rmsg string
				if rng.Intn(3) == 0 {
					msg, rmsg = snap.remove(k), replayed.remove(k)
				} else {
					v := rng.Int()
					msg, rmsg = snap.put(k, v), replayed.put(k, v)
				}
				if msg != "" || rmsg != "" {
					t.Fatalf("seed %d batch %d: snapshot %q, replayed %q", seed, b, msg, rmsg)
				}
			}
			adopted.ct.Adopt(snap.ct)
			adopted.model = snap.model
			if msg := adopted.diff(keyRange); msg != "" {
				t.Fatalf("seed %d batch %d: adopted: %s", seed, b, msg)
			}
			if b%16 == 0 && !maps.Equal(contents(adopted.ct), contents(replayed.ct)) {
				t.Fatalf("seed %d batch %d: adopted and replayed tries differ", seed, b)
			}
		}
		if !maps.Equal(adopted.model, replayed.model) {
			t.Fatalf("seed %d: models differ", seed)
		}
	}
}

// TestCtrieAdoptKeepsOlderSnapshots: a snapshot taken before another
// snapshot's adoption shares the nodes the adopted one displaced. They must
// not be recycled while it lives, however often the held cohorts are
// re-checked, and they must be recycled once it is discarded. The pools are
// poisoned.
func TestCtrieAdoptKeepsOlderSnapshots(t *testing.T) {
	t.Run("one-node", func(t *testing.T) {
		// One P and no collection, so every operation borrows the pooled
		// handle that holds the node (see the lifetime tests).
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		base := viewOf(NewCtrie[int, int](IntHasher), nil)
		g := poisonPool(base.ct)
		for k := 0; k < 256; k++ {
			base.put(k, k)
		}
		old := viewOf(base.ct.Snapshot(), base.model)
		sh := viewOf(base.ct.Snapshot(), base.model)
		shared := sh.ct.rdcssReadRoot(false).main.Load()
		if msg := sh.put(7, -7); msg != "" {
			t.Fatal(msg)
		}
		if sh.ct.rdcssReadRoot(false).main.Load() == shared {
			t.Fatal("the write did not displace the shared root main")
		}
		epoch := base.ct.pool.ebr.global.Load()
		base.ct.Adopt(sh.ct)
		base.model = sh.model
		ageOut(base.ct)
		if base.ct.pool.ebr.global.Load() < epoch+2*ebrGrace && !raceEnabled { // under -race sync.Pool drops handles before they volunteer
			t.Fatal("the reader epoch did not advance")
		}
		if shared.cn.gen == g {
			t.Fatal("a node the adopted snapshot displaced was recycled while an older snapshot shares it")
		}
		if msg := old.diff(256); msg != "" {
			t.Fatalf("older snapshot: %s", msg)
		}
		old.ct.Discard()
		ageOut(base.ct)
		if shared.cn.gen != g && !raceEnabled { // under -race sync.Pool may drop the handle holding it
			t.Fatal("a node the adopted snapshot displaced was not recycled after the last snapshot sharing it was discarded")
		}
		if msg := base.diff(256); msg != "" {
			t.Fatalf("base: %s", msg)
		}
		if msg := poisonIn(base.ct, g); msg != "" {
			t.Fatalf("the base reaches a %s", msg)
		}
	})

	t.Run("many-views", func(t *testing.T) {
		const keyRange = 96
		steps := 3000
		if raceEnabled {
			steps = 150
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := viewOf(NewCtrie[int, int](IntHasher), nil)
			g := poisonPool(base.ct)
			var older []ctView // snapshots of the base, adopted around
			for step := 0; step < steps; step++ {
				k := rng.Intn(keyRange)
				msg := ""
				switch op := rng.Intn(8); {
				case op < 4:
					sh := viewOf(base.ct.Snapshot(), base.model)
					for n := 1 + rng.Intn(8); n > 0 && msg == ""; n-- {
						if k = rng.Intn(keyRange); rng.Intn(3) == 0 {
							msg = sh.remove(k)
						} else {
							msg = sh.put(k, step)
						}
					}
					base.ct.Adopt(sh.ct)
					base.model = sh.model
				case op == 4 && len(older) < 6:
					older = append(older, viewOf(base.ct.Snapshot(), base.model))
				case op == 5 && len(older) < 6:
					older = append(older, viewOf(base.ct.ReadOnlySnapshot(), base.model))
				case op == 6 && len(older) > 0:
					i := rng.Intn(len(older))
					if !older[i].ct.readOnly {
						msg = older[i].put(k, -step)
					}
				case op == 7 && len(older) > 0:
					i := rng.Intn(len(older))
					older[i].ct.Discard()
					older = append(older[:i], older[i+1:]...)
				}
				if msg != "" {
					t.Fatalf("seed %d step %d: %s", seed, step, msg)
				}
				for j, v := range append([]ctView{base}, older...) {
					if msg := v.diff(keyRange); msg != "" {
						t.Fatalf("seed %d after step %d: view %d: %s", seed, step, j, msg)
					}
					if msg := poisonIn(v.ct, g); msg != "" {
						t.Fatalf("seed %d after step %d: view %d reaches a %s", seed, step, j, msg)
					}
				}
			}
		}
	})
}

// TestCtrieAdoptConcurrentReaders runs a snapshot, write, adopt loop on a
// poisoned trie while readers Get every key and take read-only snapshots;
// two goroutines write each snapshot at once, sharing its record.
// Every key stays present with a self-describing value (v % keys == k), and
// each adoption rewrites one group of eight keys with one round number, so
// a read-only snapshot must see every group uniform: an adoption is one
// atomic step, and a node recycled under a reader loses its key.
func TestCtrieAdoptConcurrentReaders(t *testing.T) {
	const keys, group = 512, 8
	base := NewCtrie[int, int](IntHasher)
	g := poisonPool(base)
	for k := 0; k < keys; k++ {
		base.Put(k, k)
	}
	rounds := 3000
	if raceEnabled || testing.Short() {
		rounds = 500
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	var bad atomic.Pointer[string]
	report := func(msg string) { bad.CompareAndSwap(nil, &msg) }
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for k := 0; k < keys; k++ {
					if v, ok := base.Get(k); !ok || v%keys != k {
						report(fmt.Sprintf("base Get(%d) = (%d,%v)", k, v, ok))
						return
					}
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			ro := base.ReadOnlySnapshot()
			seen := contents(ro)
			ro.Discard()
			if len(seen) != keys {
				report(fmt.Sprintf("a read-only snapshot holds %d keys", len(seen)))
				return
			}
			for k := 0; k < keys; k += group {
				for j := k + 1; j < k+group; j++ {
					if seen[j]/keys != seen[k]/keys {
						report(fmt.Sprintf("a read-only snapshot sees keys %d and %d from rounds %d and %d", k, j, seen[k]/keys, seen[j]/keys))
						return
					}
				}
			}
		}
	}()
	rng := rand.New(rand.NewSource(5))
	want := map[int]int{}
	for k := 0; k < keys; k++ {
		want[k] = k
	}
	for r := 1; r <= rounds && bad.Load() == nil; r++ {
		sh := base.Snapshot()
		first := rng.Intn(keys/group) * group
		var writers sync.WaitGroup
		for lo := first; lo < first+group; lo += group / 2 {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for k := lo; k < lo+group/2; k++ {
					sh.Put(k, r*keys+k)
				}
			}()
		}
		writers.Wait()
		for k := first; k < first+group; k++ {
			want[k] = r*keys + k
		}
		base.Adopt(sh)
	}
	stop.Store(true)
	readers.Wait()
	if p := bad.Load(); p != nil {
		t.Fatal(*p)
	}
	if got := contents(base); !maps.Equal(got, want) {
		t.Fatal("the base does not hold what was adopted into it")
	}
	ageOut(base)
	if msg := poisonIn(base, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}

// TestCtrieAdoptPanicsOnMovedSource: Adopt accepts only a mutable snapshot
// of the trie taken while the trie held what it holds now, into a trie that
// is no snapshot. Snapshots taken of the trie in between do not move it; a
// write to it, or another snapshot's adoption, does.
func TestCtrieAdoptPanicsOnMovedSource(t *testing.T) {
	newBase := func() *Ctrie[int, int] {
		ct := NewCtrie[int, int](IntHasher)
		for k := 0; k < 100; k++ {
			ct.Put(k, k)
		}
		return ct
	}

	base := newBase()
	snap := base.Snapshot()
	snap.Put(1, -1)
	base.Put(2, -2)
	if !mustPanic(func() { base.Adopt(snap) }) {
		t.Fatal("Adopt accepted a snapshot after a write to its source")
	}

	base = newBase()
	a, b := base.Snapshot(), base.Snapshot()
	a.Put(1, -1)
	b.Put(2, -2)
	base.Adopt(a)
	if !mustPanic(func() { base.Adopt(b) }) {
		t.Fatal("Adopt accepted a snapshot cut before another snapshot's adoption")
	}

	base = newBase()
	if !mustPanic(func() { base.Adopt(newBase()) }) {
		t.Fatal("Adopt accepted a trie that is no snapshot")
	}
	ro := base.ReadOnlySnapshot()
	if !mustPanic(func() { base.Adopt(ro) }) {
		t.Fatal("Adopt accepted a read-only snapshot")
	}
	shadow := base.Snapshot()
	if !mustPanic(func() { shadow.Adopt(shadow.Snapshot()) }) {
		t.Fatal("a snapshot adopted a snapshot of itself")
	}

	// Snapshots of the source in between leave it where it was.
	base = newBase()
	snap = base.Snapshot()
	snap.Put(3, -3)
	other := base.Snapshot()
	ro = base.ReadOnlySnapshot()
	base.Adopt(snap)
	if v, _ := base.Get(3); v != -3 {
		t.Fatalf("after Adopt, Get(3) = %d", v)
	}
	if v, _ := other.Get(3); v != 3 {
		t.Fatalf("a snapshot taken before the adoption reads Get(3) = %d", v)
	}
	if v, _ := ro.Get(3); v != 3 {
		t.Fatalf("a read-only snapshot taken before the adoption reads Get(3) = %d", v)
	}
	other.Discard()
	ro.Discard()
}
