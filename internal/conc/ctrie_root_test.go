package conc

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// This file pins the recycling of a Ctrie's root objects — the rootRef a
// root points at, the RDCSS descriptors that swing it, and snapshot
// headers — through the handle's reader bins: a snapshot cycle allocates
// nothing in steady state, nothing is handed out again while a participant
// pinned before its retirement may still hold it, and no reader of the
// base reaches a recycled one.

// TestCtrieSnapshotAllocGate: in steady state a snapshot cycle allocates
// nothing. Generations are values, and the header, root objects and
// descriptors come back through the pool, as do the nodes the writes
// displace (through the snapshot's record) and the root INodes.
func TestCtrieSnapshotAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	// One P, so every operation borrows the same pooled handle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1024
	ct := NewCtrie[int, int](IntHasher)
	for i := 0; i < n; i++ {
		ct.Put(i, i)
	}
	i := 0
	cycles := []struct {
		name string
		run  func()
	}{
		{"snapshot-8-writes-adopt", func() {
			snap := ct.Snapshot()
			for j := 0; j < 8; j++ {
				k := (i*8 + j) * 97 % n
				if j%4 == 3 {
					snap.Remove(k)
				} else {
					snap.Put(k, i)
				}
			}
			ct.Adopt(snap)
			i++
		}},
		{"snapshot-discard", func() { ct.Snapshot().Discard() }},
		{"read-only-snapshot-discard", func() { ct.ReadOnlySnapshot().Discard() }},
	}
	for _, c := range cycles {
		t.Run(c.name, func(t *testing.T) {
			for j := 0; j < 256; j++ {
				c.run() // reach pool steady state
			}
			if avg := testing.AllocsPerRun(1000, c.run); avg > 0 {
				t.Fatalf("%.0f allocations per cycle, want 0", avg)
			}
		})
	}
}

// TestCtrieRetiredDescriptorWaitsForPinnedHelper: a helper that holds an
// RDCSS descriptor keeps it, and the root it displaced, from the freelists
// for as long as it stays pinned, however often the other participant
// pins; once it unpins, both come back.
func TestCtrieRetiredDescriptorWaitsForPinnedHelper(t *testing.T) {
	ct := NewCtrie[int, int](IntHasher)
	for k := 0; k < 64; k++ {
		ct.Put(k, k)
	}
	// Both handles are used directly, never through the pool's sync.Pool,
	// so the one that retires the objects is the one checked.
	helper, h := ct.pool.get(), ct.pool.get()
	h.pin()
	ov := ct.rdcssReadRootRef(false)
	nv := h.newRoot()
	nv.in = h.newINode(ct.pool.newGen(ov.in.gen.line), ct.gcasRead(ov.in))
	d := h.newRoot()
	d.old, d.expMain, d.nv = ov, nv.in.main.Load(), nv
	if !ct.root.CompareAndSwap(ov, d) {
		t.Fatal("could not publish the descriptor")
	}
	helper.pin()
	if held := ct.root.Load(); held != d {
		t.Fatal("the helper does not see the descriptor")
	}
	ct.rdcssComplete(false) // the helper finishes the RDCSS it met
	if !ct.rdcssSettle(h, d) {
		t.Fatal("the RDCSS did not commit")
	}
	h.unpin()

	// age pins h often enough to advance the epoch and drain its bins many
	// times over, were nobody else pinned.
	age := func() {
		for i := 0; i < 16*advanceEvery; i++ {
			h.pin()
			h.unpin()
		}
	}
	recycled := func() []string {
		var out []string
		if slices.Contains(h.roots, d) {
			out = append(out, "descriptor")
		}
		if slices.Contains(h.roots, ov) {
			out = append(out, "displaced root")
		}
		return out
	}
	age()
	if got := recycled(); len(got) > 0 {
		t.Fatalf("%v handed out again while a helper that held the descriptor is pinned", got)
	}
	if d.old != ov || d.nv != nv {
		t.Fatal("the descriptor was reset while a helper held it")
	}
	helper.unpin()
	age()
	if got := recycled(); len(got) != 2 {
		t.Fatalf("only %v recycled after the helper unpinned", got)
	}
	if d.in != nil || d.old != nil || d.outcome.Load() != 0 {
		t.Fatal("a recycled descriptor is not reset")
	}
	ct.pool.put(h)
	ct.pool.put(helper)
	for k := 0; k < 64; k++ {
		if v, ok := ct.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
		}
	}
}

// TestCtrieRootRecyclingConcurrent runs the snapshot log's shape on a
// poisoned trie: two writers loop snapshot, writes, then Adopt — or
// Discard, when the other adopted first or at random — with the snapshot
// and the adoption under one mutex, while readers Get every key and take
// Len and read-only snapshots of the base. Values are self-describing
// (v % keys == k) and every key stays present, so a reader that reaches a
// recycled root object, header or node loses keys or finds the poison; the
// base must end holding exactly what was adopted into it.
func TestCtrieRootRecyclingConcurrent(t *testing.T) {
	const keys = 256
	base := NewCtrie[int, int](IntHasher)
	g := poisonPool(base)
	want := map[int]int{}
	for k := 0; k < keys; k++ {
		base.Put(k, k)
		want[k] = k
	}
	rounds := 4000
	if raceEnabled || testing.Short() {
		rounds = 400
	}
	var (
		cut     sync.Mutex // guards adopted and want
		adopted int
		stop    atomic.Bool
		bad     atomic.Pointer[string]
		readers sync.WaitGroup
	)
	report := func(msg string) { bad.CompareAndSwap(nil, &msg) }
	for range 2 {
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
			if n := base.Len(); n != keys {
				report(fmt.Sprintf("base Len() = %d", n))
				return
			}
			ro := base.ReadOnlySnapshot()
			seen := contents(ro)
			msg := poisonIn(ro, g)
			ro.Discard()
			if msg != "" {
				report("a read-only snapshot reaches a " + msg)
				return
			}
			if len(seen) != keys {
				report(fmt.Sprintf("a read-only snapshot holds %d keys", len(seen)))
				return
			}
			for k, v := range seen {
				if v%keys != k {
					report(fmt.Sprintf("a read-only snapshot holds %d under %d", v, k))
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := w; r < rounds && bad.Load() == nil; r += 2 {
				cut.Lock()
				sh := base.Snapshot()
				seen := adopted
				cut.Unlock()
				wrote := map[int]int{}
				for n := 1 + rng.Intn(8); n > 0; n-- {
					k := rng.Intn(keys)
					if rng.Intn(4) == 0 {
						sh.Remove(k)
					}
					sh.Put(k, (r+1)*keys+k)
					wrote[k] = (r+1)*keys + k
				}
				if msg := poisonIn(sh, g); msg != "" {
					report("a shadow reaches a " + msg)
				}
				cut.Lock()
				if adopted != seen || rng.Intn(4) == 0 {
					cut.Unlock()
					sh.Discard()
					continue
				}
				base.Adopt(sh)
				adopted++
				maps.Copy(want, wrote)
				cut.Unlock()
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if p := bad.Load(); p != nil {
		t.Fatal(*p)
	}
	if adopted == 0 {
		t.Fatal("no shadow was adopted; the test exercised nothing")
	}
	if got := contents(base); !maps.Equal(got, want) {
		t.Fatal("the base does not hold what was adopted into it")
	}
	ageOut(base)
	if msg := poisonIn(base, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}
