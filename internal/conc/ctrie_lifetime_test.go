package conc

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// This file pins the ownership rule of snapshot-lifetime recycling: a trie
// recycles what it displaces from its own lineage — at once after a reader
// grace period when the node is of its current generation, only after every
// snapshot that could see it is discarded when it is older — and never a
// node of another lineage. The pools are poisoned: a node entering a
// freelist is stamped with a sentinel generation and dropped instead of
// reused, so a trie that can still reach it reads garbage, and poisonIn
// finds the stamp on any reachable node.

// poisonPool switches ct's pool (shared by every snapshot of ct) to poison
// mode and returns the sentinel generation.
func poisonPool(ct *Ctrie[int, int]) ctGen {
	ct.pool.poison = ctGen{line: ^uint64(0), seq: ^uint64(0)}
	return ct.pool.poison
}

// poisonIn walks ct under a pin and describes the first reachable node that
// carries the poison generation g, or returns "".
func poisonIn(ct *Ctrie[int, int], g ctGen) string {
	h := ct.pool.get()
	h.pin()
	defer func() {
		h.unpin()
		ct.pool.put(h)
	}()
	var walk func(in *ctINode[int, int], depth int) string
	walk = func(in *ctINode[int, int], depth int) string {
		if in.gen == g {
			return fmt.Sprintf("recycled INode at depth %d", depth)
		}
		m := ct.gcasRead(in)
		var boxes []*ctBranch[int, int]
		switch {
		case m.cn != nil:
			if m.cn.gen == g {
				return fmt.Sprintf("recycled CNode or main at depth %d", depth)
			}
			boxes = m.cn.array
		case m.tn != nil:
			boxes = []*ctBranch[int, int]{m.tn}
		case m.ln != nil:
			boxes = m.ln.entries
		}
		for _, b := range boxes {
			if b.gen == g {
				return fmt.Sprintf("recycled branch box at depth %d", depth)
			}
			if b.in != nil {
				if msg := walk(b.in, depth+1); msg != "" {
					return msg
				}
			}
		}
		return ""
	}
	return walk(ct.rdcssReadRoot(false), 0)
}

// ageOut runs enough pinned operations on ct for every epoch to advance and
// every expired bin of the handle they use to drain.
func ageOut(ct *Ctrie[int, int]) {
	for i := 0; i < 16*advanceEvery; i++ {
		ct.Get(i)
	}
}

// TestCtrieSharedNodesAgeOutThroughSnapshots first follows one node: the
// root main the base shares with a snapshot is displaced by the base's next
// write, must survive while the snapshot lives, and must be recycled once
// the snapshot is discarded. It then runs a base and up to seven live
// snapshots — mutable, read-only, snapshots of snapshots, one that is never
// discarded — checking every trie against its own model and for reachable
// poison after every step.
func TestCtrieSharedNodesAgeOutThroughSnapshots(t *testing.T) {
	t.Run("one-node", func(t *testing.T) {
		// Every operation must borrow the pooled handle that holds the node:
		// one P, so sync.Pool always serves the same one, and no collection
		// to drop it.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		base := viewOf(NewCtrie[int, int](IntHasher), nil)
		g := poisonPool(base.ct)
		for k := 0; k < 256; k++ {
			base.put(k, k)
		}
		snap := viewOf(base.ct.Snapshot(), base.model)
		shared := base.ct.rdcssReadRoot(false).main.Load()
		if shared != snap.ct.rdcssReadRoot(false).main.Load() {
			t.Fatal("a fresh snapshot does not share its source's root main")
		}
		if msg := base.put(7, -7); msg != "" {
			t.Fatal(msg)
		}
		if base.ct.rdcssReadRoot(false).main.Load() == shared {
			t.Fatal("the write did not displace the shared root main")
		}
		ageOut(base.ct)
		if shared.cn.gen == g {
			t.Fatal("a node shared with a live snapshot was recycled")
		}
		if msg := snap.diff(256); msg != "" {
			t.Fatalf("snapshot: %s", msg)
		}
		snap.ct.Discard()
		ageOut(base.ct)
		if shared.cn.gen != g && !raceEnabled { // under -race sync.Pool may drop the handle holding it
			t.Fatal("the displaced node was not recycled after its last snapshot was discarded")
		}
		if msg := base.diff(256); msg != "" {
			t.Fatalf("base: %s", msg)
		}
	})

	t.Run("many-views", func(t *testing.T) {
		const keyRange = 96
		steps := 4000
		if raceEnabled {
			steps = 600
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := NewCtrie[int, int](IntHasher)
			g := poisonPool(base)
			views := []ctView{viewOf(base, nil)}
			kept := -1 // index of the snapshot nobody discards, once taken
			for step := 0; step < steps; step++ {
				i := rng.Intn(len(views))
				v := views[i]
				k := rng.Intn(keyRange)
				msg := ""
				switch op := rng.Intn(16); {
				case op < 6 && !v.ct.readOnly:
					msg = v.put(k, step)
				case op < 10 && !v.ct.readOnly:
					msg = v.remove(k)
				case op == 10 && len(views) < 8:
					views = append(views, viewOf(v.ct.Snapshot(), v.model))
				case op == 11 && len(views) < 8 && !v.ct.readOnly:
					views = append(views, viewOf(v.ct.ReadOnlySnapshot(), v.model))
				case op == 12:
					if n := v.ct.Len(); n != len(v.model) {
						msg = fmt.Sprintf("Len = %d, model has %d", n, len(v.model))
					}
				case op == 13 && i > 0 && i != kept:
					v.ct.Discard()
					views = append(views[:i], views[i+1:]...)
					if kept > i {
						kept--
					}
				}
				if msg != "" {
					t.Fatalf("seed %d step %d: view %d: %s", seed, step, i, msg)
				}
				// Halfway through, the newest snapshot becomes the one nobody
				// discards: from then on it holds what it reaches for good,
				// which must cost reuse, never correctness.
				if step == steps/2 && kept < 0 && len(views) > 1 {
					kept = len(views) - 1
				}
				for j, w := range views {
					if msg := w.diff(keyRange); msg != "" {
						t.Fatalf("seed %d after step %d on view %d: view %d: %s", seed, step, i, j, msg)
					}
					if msg := poisonIn(w.ct, g); msg != "" {
						t.Fatalf("seed %d after step %d on view %d: view %d reaches a %s", seed, step, i, j, msg)
					}
				}
			}
		}
	})
}

// TestCtrieShadowNeverRecyclesSourceNodes checks the other half of the
// ownership rule: a shadow's first writes displace nodes — the very root
// main among them — that its source still uses, and its renewals, its own
// snapshots and its Discard must not hand any of them to the freelists.
// The shadow's own nodes, on the other hand, must come back.
func TestCtrieShadowNeverRecyclesSourceNodes(t *testing.T) {
	const keys = 512 // three levels in places
	rng := rand.New(rand.NewSource(11))
	base := viewOf(NewCtrie[int, int](IntHasher), nil)
	g := poisonPool(base.ct)
	for k := 0; k < keys; k += 2 {
		base.put(k, k)
	}
	rounds := 60
	if raceEnabled {
		rounds = 15
	}
	for round := 0; round < rounds; round++ {
		sh := viewOf(base.ct.Snapshot(), base.model)
		churn := func(v ctView, n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				k, msg := rng.Intn(keys), ""
				if rng.Intn(3) == 0 {
					msg = v.remove(k)
				} else {
					msg = v.put(k, -k)
				}
				if msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
			}
		}
		churn(sh, 64)
		if round%3 == 0 {
			// A snapshot of the shadow shares the shadow's nodes as well as
			// the base's; writes to either side must keep both intact.
			sh2 := viewOf(sh.ct.Snapshot(), sh.model)
			churn(sh2, 32)
			churn(sh, 32)
			if msg := sh2.diff(keys); msg != "" {
				t.Fatalf("round %d: snapshot of the shadow: %s", round, msg)
			}
			sh2.ct.Discard()
		}
		if msg := sh.diff(keys); msg != "" {
			t.Fatalf("round %d: shadow: %s", round, msg)
		}
		own := sh.ct.rdcssReadRoot(false)
		sh.ct.Discard()
		if own.gen != g {
			t.Fatalf("round %d: Discard did not recycle the shadow's own root", round)
		}
		if round%2 == 0 {
			churn(base, 16) // the base retires its own nodes meanwhile
		}
		ageOut(base.ct)
		if msg := poisonIn(base.ct, g); msg != "" {
			t.Fatalf("round %d: the base reaches a %s", round, msg)
		}
		if msg := base.diff(keys); msg != "" {
			t.Fatalf("round %d: base: %s", round, msg)
		}
	}
}

// TestCtrieSharedNodesAgeOutConcurrent races the lifetime protocol: writers
// churn a poisoned base while holders take a read-only snapshot, a mutable
// snapshot of it (which holds its pin slot), write to the mutable one, check
// both against what they held, and discard both. Halfway through, one
// holder keeps a snapshot that is never discarded. A node recycled while a
// holder can still reach it is poisoned, so that holder's check misses a
// key; the base's writers check that displaced values are self-describing
// (v % keys == k). Run with -race.
func TestCtrieSharedNodesAgeOutConcurrent(t *testing.T) {
	const keys = 256
	base := NewCtrie[int, int](IntHasher)
	g := poisonPool(base)
	for k := 0; k < keys; k += 2 {
		base.Put(k, k)
	}
	rounds := 300
	if raceEnabled || testing.Short() {
		rounds = 30
	}
	var stop atomic.Bool
	var writers, holders sync.WaitGroup
	var bad atomic.Pointer[string]
	report := func(msg string) { bad.CompareAndSwap(nil, &msg) }
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					if old, had := base.Put(k, k+keys*rng.Intn(1000)); had && old%keys != k {
						report(fmt.Sprintf("base Put(%d) displaced %d", k, old))
					}
				} else if old, had := base.Remove(k); had && old%keys != k {
					report(fmt.Sprintf("base Remove(%d) returned %d", k, old))
				}
			}
		}(int64(w + 1))
	}
	var kept ctView
	for r := 0; r < 2; r++ {
		holders.Add(1)
		go func(id int, seed int64) {
			defer holders.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds && bad.Load() == nil; i++ {
				ro := viewOf(base.ReadOnlySnapshot(), nil)
				ro.ct.Range(func(k, v int) bool {
					ro.model[k] = v
					return true
				})
				sh := viewOf(ro.ct.Snapshot(), ro.model)
				for j := 0; j < 32; j++ {
					k, msg := rng.Intn(keys), ""
					if rng.Intn(2) == 0 {
						msg = sh.put(k, k+keys*(1000+j))
					} else {
						msg = sh.remove(k)
					}
					if msg != "" {
						report(fmt.Sprintf("round %d: shadow: %s", i, msg))
						return
					}
				}
				for _, c := range []struct {
					name string
					v    ctView
				}{{"read-only snapshot", ro}, {"shadow", sh}} {
					if msg := c.v.diff(keys); msg != "" {
						report(fmt.Sprintf("round %d: %s: %s", i, c.name, msg))
						return
					}
				}
				sh.ct.Discard()
				if id == 0 && i == rounds/2 {
					kept = ro // never discarded
					continue
				}
				ro.ct.Discard()
			}
		}(r, int64(r+10))
	}
	holders.Wait()
	stop.Store(true)
	writers.Wait()
	if p := bad.Load(); p != nil {
		t.Fatal(*p)
	}
	if msg := kept.diff(keys); kept.ct != nil && msg != "" {
		t.Fatalf("the snapshot nobody discarded: %s", msg)
	}
	for _, c := range []struct {
		name string
		ct   *Ctrie[int, int]
	}{{"base", base}, {"the snapshot nobody discarded", kept.ct}} {
		if c.ct == nil {
			continue
		}
		if msg := poisonIn(c.ct, g); msg != "" {
			t.Fatalf("%s reaches a %s", c.name, msg)
		}
	}
}

// TestCtrieShadowNeverRecyclesSourceNodesConcurrent is the concurrent
// variant of the shadow rule: shadows of an unchanging, poisoned base are
// taken, written and discarded from several goroutines while readers check
// every key of the base against its fixed contents.
func TestCtrieShadowNeverRecyclesSourceNodesConcurrent(t *testing.T) {
	const keys = 512
	base := NewCtrie[int, int](IntHasher)
	g := poisonPool(base)
	for k := 0; k < keys; k += 2 {
		base.Put(k, k)
	}
	rounds := 400
	if raceEnabled || testing.Short() {
		rounds = 40
	}
	var stop atomic.Bool
	var shadows, readers sync.WaitGroup
	var bad atomic.Pointer[string]
	report := func(msg string) { bad.CompareAndSwap(nil, &msg) }
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for k := 0; k < keys; k++ {
					if v, ok := base.Get(k); ok != (k%2 == 0) || (ok && v != k) {
						report(fmt.Sprintf("base Get(%d) = (%d,%v)", k, v, ok))
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		shadows.Add(1)
		go func(seed int64) {
			defer shadows.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds && bad.Load() == nil; i++ {
				sh := base.Snapshot()
				for j := 0; j < 24; j++ {
					k := rng.Intn(keys)
					if rng.Intn(3) == 0 {
						sh.Remove(k)
					} else {
						sh.Put(k, -k)
					}
				}
				sh.Discard()
			}
		}(int64(w + 20))
	}
	shadows.Wait()
	stop.Store(true)
	readers.Wait()
	if p := bad.Load(); p != nil {
		t.Fatal(*p)
	}
	ageOut(base)
	if msg := poisonIn(base, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}
