package conc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// This file tests the two things a snapshot costs after the lazy-renewal
// rewrite: a new-generation CNode may keep older-generation children, so a
// write must never reach a snapshot through one of them, and Discard hands a
// private trie's nodes to the allocator at once, so none of them may still
// be reachable from anybody else.

// ctView is one trie — the base or a snapshot — beside the map it must equal.
type ctView struct {
	ct    *Ctrie[int, int]
	model map[int]int
}

func viewOf(ct *Ctrie[int, int], model map[int]int) ctView {
	return ctView{ct: ct, model: cloneOracle(model)}
}

// diff returns the first disagreement between the trie and its model over
// keys [0, keyRange), or "".
func (v ctView) diff(keyRange int) string {
	for k := 0; k < keyRange; k++ {
		got, ok := v.ct.Get(k)
		want, wok := v.model[k]
		if ok != wok || got != want {
			return fmt.Sprintf("Get(%d) = (%d,%v), model (%d,%v)", k, got, ok, want, wok)
		}
	}
	return ""
}

func (v ctView) put(k, val int) string {
	old, had := v.ct.Put(k, val)
	want, wok := v.model[k]
	v.model[k] = val
	if had != wok || old != want {
		return fmt.Sprintf("Put(%d) = (%d,%v), model (%d,%v)", k, old, had, want, wok)
	}
	return ""
}

func (v ctView) remove(k int) string {
	old, had := v.ct.Remove(k)
	want, wok := v.model[k]
	delete(v.model, k)
	if had != wok || old != want {
		return fmt.Sprintf("Remove(%d) = (%d,%v), model (%d,%v)", k, old, had, want, wok)
	}
	return ""
}

// TestCtrieLazyRenewalIsolation interleaves Put/Remove/Get on a base trie
// and on live snapshots of it — mutable ones, read-only ones, snapshots of
// snapshots, some discarded along the way — and checks every one of them
// against its own model after every step. A write that leaks through a
// shared older-generation INode, or a node recycled while a sibling can
// reach it, shows up in a trie that was not the one written.
func TestCtrieLazyRenewalIsolation(t *testing.T) {
	const keyRange = 96 // 32-way nodes: two levels everywhere, three in places
	steps, checkEvery := 4000, 1
	if raceEnabled {
		// Under the detector sync.Pool drops handles and each lost one
		// registers a new epoch slot, so reading every view in full after
		// every step is quadratic; a leak stays visible until the next check.
		steps, checkEvery = 480, 8
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		views := []ctView{viewOf(NewCtrie[int, int](IntHasher), nil)}
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
			case op == 11 && len(views) < 8 && !v.ct.readOnly: // of a read-only trie it is the trie itself
				views = append(views, viewOf(v.ct.ReadOnlySnapshot(), v.model))
			case op == 12:
				if n := v.ct.Len(); n != len(v.model) { // Len snapshots: one more generation
					msg = fmt.Sprintf("Len = %d, model has %d", n, len(v.model))
				}
			case op == 13 && i > 0:
				v.ct.Discard()
				views = append(views[:i], views[i+1:]...)
			}
			if msg != "" {
				t.Fatalf("seed %d step %d: view %d: %s", seed, step, i, msg)
			}
			if step%checkEvery != 0 {
				continue
			}
			for j, w := range views {
				if msg := w.diff(keyRange); msg != "" {
					t.Fatalf("seed %d after step %d on view %d: view %d: %s", seed, step, i, j, msg)
				}
			}
		}
	}
}

// TestCtrieLazyRenewalConcurrent is the concurrent variant: writers churn
// the base while each reader holds a read-only snapshot and a mutable
// snapshot of it, writes to the mutable one, and verifies both against
// what they held when they were taken. Run with -race.
func TestCtrieLazyRenewalConcurrent(t *testing.T) {
	const keyRange = 256
	base := NewCtrie[int, int](IntHasher)
	for k := 0; k < keyRange; k += 2 {
		base.Put(k, k)
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(keyRange)
				if rng.Intn(2) == 0 {
					base.Put(k, k+keyRange*rng.Intn(1000))
				} else {
					base.Remove(k)
				}
			}
		}(int64(w + 1))
	}
	rounds := 300
	if raceEnabled || testing.Short() {
		rounds = 15
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				ro := viewOf(base.ReadOnlySnapshot(), nil)
				ro.ct.Range(func(k, v int) bool {
					ro.model[k] = v
					return true
				})
				sh := viewOf(ro.ct.Snapshot(), ro.model)
				for j := 0; j < 32; j++ {
					k, msg := rng.Intn(keyRange), ""
					if rng.Intn(2) == 0 {
						msg = sh.put(k, -k)
					} else {
						msg = sh.remove(k)
					}
					if msg != "" {
						t.Errorf("round %d: shadow: %s", i, msg)
						return
					}
				}
				if msg := ro.diff(keyRange); msg != "" {
					t.Errorf("round %d: read-only snapshot thawed: %s", i, msg)
					return
				}
				if msg := sh.diff(keyRange); msg != "" {
					t.Errorf("round %d: shadow: %s", i, msg)
					return
				}
				sh.ct.Discard()
			}
		}(int64(r + 10))
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
}

// TestCtrieGetAfterSnapshotDoesNotCopy pins the read-through: a snapshot
// makes every node old, and looking keys up afterwards — in the source or
// in the snapshot — must not renew anything.
func TestCtrieGetAfterSnapshotDoesNotCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const keys = 1024
	ct := NewCtrie[int, int](IntHasher)
	for k := 0; k < keys; k++ {
		ct.Put(k, k)
	}
	snap := ct.Snapshot()
	for _, c := range []struct {
		name string
		ct   *Ctrie[int, int]
	}{{"source", ct}, {"snapshot", snap}} {
		allocs := testing.AllocsPerRun(10, func() {
			for k := 0; k < keys; k++ {
				if v, ok := c.ct.Get(k); !ok || v != k {
					t.Fatalf("%s: Get(%d) = (%d,%v)", c.name, k, v, ok)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per %d Gets after a snapshot, want 0", c.name, allocs, keys)
		}
	}
}

// TestCtrieDiscardDoesNotAliasSiblings lets two snapshots and the base
// diverge, discards one snapshot, and churns the base until the freelists
// have handed the discarded nodes out again: the other snapshot, a snapshot
// taken of the discarded one beforehand, and the base must still match
// their models. Values are self-describing (v % keys == k), so a node
// handed out while still reachable shows as another key's value. Using the
// discarded trie panics.
func TestCtrieDiscardDoesNotAliasSiblings(t *testing.T) {
	const keys = 128
	rng := rand.New(rand.NewSource(5))
	val := func(k int) int { return k + keys*(1+rng.Intn(1000)) }
	base := viewOf(NewCtrie[int, int](IntHasher), nil)
	for k := 0; k < keys; k += 2 {
		base.put(k, val(k))
	}
	s1 := viewOf(base.ct.Snapshot(), base.model)
	s2 := viewOf(base.ct.Snapshot(), base.model)
	churn := func(v ctView, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k, msg := rng.Intn(keys), ""
			if rng.Intn(3) == 0 {
				msg = v.remove(k)
			} else {
				msg = v.put(k, val(k))
			}
			if msg != "" {
				t.Fatal(msg)
			}
		}
	}
	churn(s1, 200)
	churn(s2, 200)
	churn(base, 200)
	s1a := viewOf(s1.ct.Snapshot(), s1.model) // shares s1's older nodes
	churn(s1, 200)                            // s1's own generation: private again
	s1.ct.Discard()

	steps := 100000 // several times every freelist cap
	if raceEnabled {
		steps = 20000
	}
	churn(base, steps)
	for _, c := range []struct {
		name string
		v    ctView
	}{{"base", base}, {"sibling snapshot", s2}, {"snapshot of the discarded trie", s1a}} {
		if msg := c.v.diff(keys); msg != "" {
			t.Fatalf("%s: %s", c.name, msg)
		}
		c.v.ct.Range(func(k, v int) bool {
			if v%keys != k {
				t.Fatalf("%s: key %d holds %d, another key's value", c.name, k, v)
			}
			return true
		})
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Get on a discarded trie did not panic")
		}
	}()
	s1.ct.Get(0)
}
