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

// This file pins what a snapshot's pin slot holds: only the displaced nodes
// that snapshot can reach, born before its point and displaced after it.
// While one snapshot stays pinned, the nodes its source builds and displaces
// afterwards must still come back through the pools, and the nodes it does
// reach must not, until it is discarded. It also gates the TNode mains a
// versioned trie retires.

// adoptCycle is the snapshot map's commit: a snapshot of ct, eight writes
// to it (one in four a Remove) over keys [0, n), then Adopt.
func adoptCycle(ct *Ctrie[int, int], i, n int) {
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
}

// TestCtrieStalledSnapshotDoesNotHoldYoungNodes: a snapshot cycle allocates
// nothing while another snapshot stays pinned, once the writes have
// displaced everything the pinned one reaches, and nothing is turned away
// from the held cohorts; it still allocates nothing after that snapshot is
// discarded.
func TestCtrieStalledSnapshotDoesNotHoldYoungNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	// One P, so every operation borrows the same pooled handle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 512
	ct := NewCtrie[int, int](IntHasher)
	for k := 0; k < n; k++ {
		ct.Put(k, k)
	}
	i := 0
	cycle := func() {
		adoptCycle(ct, i, n)
		i++
	}
	for j := 0; j < 256; j++ {
		cycle()
	}
	stalled := ct.Snapshot()
	for j := 0; j < 256; j++ {
		cycle() // every key is written at least four times
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > 0 {
		t.Fatalf("%.1f allocations per cycle while a snapshot is held, want 0", avg)
	}
	if d := ct.pool.dropped.Load(); d != 0 {
		t.Fatalf("%d nodes the held snapshot reaches were turned away from the held cohorts", d)
	}
	stalled.Discard()
	for j := 0; j < 256; j++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > 0 {
		t.Fatalf("%.1f allocations per cycle after the held snapshot was discarded, want 0", avg)
	}
}

// TestCtrieStalledSnapshotKeepsWhatItReaches is the poisoned counterpart:
// a snapshot held through thousands of adoption cycles keeps its contents,
// reaches no recycled node, and the root main it shared with its source
// comes back once it is discarded.
func TestCtrieStalledSnapshotKeepsWhatItReaches(t *testing.T) {
	// One P and no collection, so every operation borrows the pooled
	// handle that holds the node (see the lifetime tests).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 512
	cycles := 4000
	if raceEnabled {
		cycles = 400
	}
	rng := rand.New(rand.NewSource(7))
	base := viewOf(NewCtrie[int, int](IntHasher), nil)
	g := poisonPool(base.ct)
	for k := 0; k < n; k += 2 {
		base.put(k, k)
	}
	stalled := viewOf(base.ct.Snapshot(), base.model)
	shared := stalled.ct.rdcssReadRoot(false).main.Load()
	check := func(i int) {
		t.Helper()
		for _, c := range []struct {
			name string
			v    ctView
		}{{"held snapshot", stalled}, {"base", base}} {
			if msg := c.v.diff(n); msg != "" {
				t.Fatalf("cycle %d: %s: %s", i, c.name, msg)
			}
			if msg := poisonIn(c.v.ct, g); msg != "" {
				t.Fatalf("cycle %d: the %s reaches a %s", i, c.name, msg)
			}
		}
	}
	for i := 0; i < cycles; i++ {
		sh := viewOf(base.ct.Snapshot(), base.model)
		for j := 0; j < 8; j++ {
			k, msg := rng.Intn(n), ""
			if rng.Intn(4) == 0 {
				msg = sh.remove(k)
			} else {
				msg = sh.put(k, i)
			}
			if msg != "" {
				t.Fatalf("cycle %d: shadow: %s", i, msg)
			}
		}
		base.ct.Adopt(sh.ct)
		base.model = sh.model
		if i%200 == 0 {
			check(i)
		}
	}
	ageOut(base.ct)
	check(cycles)
	if shared.cn.gen == g {
		t.Fatal("the root main the held snapshot shares was recycled")
	}
	stalled.ct.Discard()
	ageOut(base.ct)
	if shared.cn.gen != g && !raceEnabled { // under -race sync.Pool may drop the handle holding it
		t.Fatal("the root main the held snapshot shared was not recycled after it was discarded")
	}
	if msg := poisonIn(base.ct, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}

// TestCtrieStalledSnapshotOfSnapshot: a snapshot of a snapshot reaches all
// its source reaches — nodes the base displaced between the two snapshots
// among them — so it must keep those nodes after its source is discarded
// mid-churn, while the base goes on adopting; and the nodes its source
// built and then displaced too.
func TestCtrieStalledSnapshotOfSnapshot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 512
	cycles := 2000
	if raceEnabled {
		cycles = 300
	}
	rng := rand.New(rand.NewSource(9))
	base := viewOf(NewCtrie[int, int](IntHasher), nil)
	g := poisonPool(base.ct)
	for k := 0; k < n; k += 2 {
		base.put(k, k)
	}
	write := func(v ctView, count, val int) {
		t.Helper()
		for j := 0; j < count; j++ {
			k, msg := rng.Intn(n), ""
			if rng.Intn(4) == 0 {
				msg = v.remove(k)
			} else {
				msg = v.put(k, val)
			}
			if msg != "" {
				t.Fatal(msg)
			}
		}
	}
	var nested ctView
	check := func(when string) {
		t.Helper()
		if msg := nested.diff(n); msg != "" {
			t.Fatalf("%s: snapshot of the snapshot: %s", when, msg)
		}
		if msg := poisonIn(nested.ct, g); msg != "" {
			t.Fatalf("%s: the snapshot of the snapshot reaches a %s", when, msg)
		}
	}
	src := viewOf(base.ct.Snapshot(), base.model)
	for i := 0; i < 64; i++ {
		adoptCycle(base.ct, i, n) // filed before nested exists: src's point holds them
	}
	write(src, 32, -1) // nodes of src's own lineage
	nested = viewOf(src.ct.Snapshot(), src.model)
	write(src, 32, -2) // src displaces some of them; nested still reaches them
	write(nested, 8, -3)
	// The source goes mid-churn, with nothing filed since: only its pin
	// slot, held by nested's, still covers what the base displaced before
	// nested was taken.
	src.ct.Discard()
	ageOut(base.ct)
	check("after the source's Discard")
	for i := 0; i < cycles; i++ {
		adoptCycle(base.ct, 64+i, n)
		if i%100 == 0 {
			check(fmt.Sprintf("cycle %d", i))
		}
	}
	write(nested, 8, -4)
	ageOut(base.ct)
	check("after the churn")
	nested.ct.Discard()
	ageOut(base.ct)
	if msg := poisonIn(base.ct, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}

// TestCtrieStalledSnapshotConcurrent races it: two writers loop snapshot,
// writes, Adopt (or Discard when the other adopted first) on a poisoned
// trie, readers Get every key, and one snapshot taken at the start is
// checked against its contents throughout and discarded at the end. Values
// are self-describing (v % keys == k). Run with -race.
func TestCtrieStalledSnapshotConcurrent(t *testing.T) {
	const keys = 256
	base := NewCtrie[int, int](IntHasher)
	g := poisonPool(base)
	want := map[int]int{}
	for k := 0; k < keys; k++ {
		base.Put(k, k)
		want[k] = k
	}
	stalled := viewOf(base.Snapshot(), want)
	rounds := 3000
	if raceEnabled || testing.Short() {
		rounds = 300
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
			if msg := stalled.diff(keys); msg != "" {
				report("the held snapshot: " + msg)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w + 30)))
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
				cut.Lock()
				if adopted != seen {
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
	if msg := poisonIn(stalled.ct, g); msg != "" {
		t.Fatalf("the held snapshot reaches a %s", msg)
	}
	stalled.ct.Discard()
	if got := contents(base); !maps.Equal(got, want) {
		t.Fatal("the base does not hold what was adopted into it")
	}
	ageOut(base)
	if msg := poisonIn(base, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}

// TestCtrieTombChurnAllocGate: in a versioned trie, removing one of two
// keys whose hashes agree on their first two levels entombs an INode at
// each of those levels; the TNode mains go back to the pool with the INodes
// they sat under, so Put/Remove churn of the pair allocates nothing.
func TestCtrieTombChurnAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ct := NewCtrie[int, int](IntHasher)
	a, b := 1, 2
	for ; ; b++ {
		x, y := ct.hc(a), ct.hc(b)
		if x&0x3ff == y&0x3ff && x != y {
			break
		}
	}
	ct.Put(a, a)
	cycle := func() {
		ct.Put(b, b)
		ct.Remove(b)
	}
	for j := 0; j < 256; j++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > 0 {
		t.Fatalf("%.1f allocations per Put/Remove of a colliding key, want 0", avg)
	}
	if v, ok := ct.Get(a); !ok || v != a {
		t.Fatalf("Get(%d) = (%d,%v)", a, v, ok)
	}
}

// TestCtrieUndiscardedSnapshotsShareOneSlot: snapshots nobody discards
// never grow the pin registry past ctPinSlots. Once every slot is held they
// share one, widened to cover every point below theirs, and each of them
// keeps its contents while its source churns on a poisoned pool; after all
// are discarded every slot is idle.
func TestCtrieUndiscardedSnapshotsShareOneSlot(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(13))
	base := viewOf(NewCtrie[int, int](IntHasher), nil)
	g := poisonPool(base.ct)
	for k := 0; k < n; k += 2 {
		base.put(k, k)
	}
	var kept []ctView
	for i := 0; i < ctPinSlots+36; i++ {
		kept = append(kept, viewOf(base.ct.Snapshot(), base.model))
		for j := 0; j < 4; j++ {
			k, msg := rng.Intn(n), ""
			if rng.Intn(4) == 0 {
				msg = base.remove(k)
			} else {
				msg = base.put(k, i)
			}
			if msg != "" {
				t.Fatalf("snapshot %d: base: %s", i, msg)
			}
		}
	}
	if got := len(base.ct.pool.pins.Slots()); got > ctPinSlots {
		t.Fatalf("%d pin slots for %d live snapshots, want at most %d", got, len(kept), ctPinSlots)
	}
	ageOut(base.ct)
	for i, v := range kept {
		if msg := v.diff(n); msg != "" {
			t.Fatalf("snapshot %d: %s", i, msg)
		}
		if msg := poisonIn(v.ct, g); msg != "" {
			t.Fatalf("snapshot %d reaches a %s", i, msg)
		}
	}
	for _, v := range kept {
		v.ct.Discard()
	}
	for i, s := range base.ct.pool.pins.Slots() {
		if s.hi.Load() != 0 || s.refs.Load() != 0 {
			t.Fatalf("pin slot %d still held after every snapshot was discarded", i)
		}
	}
	ageOut(base.ct)
	if msg := poisonIn(base.ct, g); msg != "" {
		t.Fatalf("the base reaches a %s", msg)
	}
}
