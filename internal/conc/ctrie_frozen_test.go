package conc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// This file is the snapshot-freezing suite: a write that lands in a node
// some snapshot can still reach, or a pool that recycles one, would mutate
// history. The deterministic tests below enumerate operation schedules with
// a snapshot taken at every step boundary and assert every snapshot stays
// frozen (equal to its oracle at capture time) while the live trie advances
// and its pools recycle nodes; the concurrent test races real writers
// against the snapshotter.

// snapAt captures a snapshot together with the oracle state at capture time.
type snapAt struct {
	snap   *Ctrie[int, int]
	oracle map[int]int
	step   int
}

func cloneOracle(m map[int]int) map[int]int {
	c := make(map[int]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func assertFrozen(t *testing.T, s snapAt) {
	t.Helper()
	got := make(map[int]int)
	s.snap.Range(func(k, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(s.oracle) {
		t.Fatalf("snapshot taken at step %d thawed: has %d keys, want %d", s.step, len(got), len(s.oracle))
	}
	for k, v := range s.oracle {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("snapshot taken at step %d thawed: key %d = %d,%v, want %d", s.step, k, gv, ok, v)
		}
	}
	for k := range s.oracle {
		if v, ok := s.snap.Get(k); !ok || v != s.oracle[k] {
			t.Fatalf("snapshot taken at step %d: Get(%d) = %d,%v disagrees with Range", s.step, k, v, ok)
		}
	}
}

// TestCtrieSnapshotFrozenAtEveryBoundary drives deterministic Put/Remove
// schedules, capturing a snapshot at every single step boundary. After the
// schedule completes (with the live trie having advanced through splits,
// contractions, lazy renewals and pool reuse), every captured snapshot must
// still equal the oracle state at its capture point.
func TestCtrieSnapshotFrozenAtEveryBoundary(t *testing.T) {
	schedules := [][2]int{ // {seed, steps}
		{1, 120}, {2, 120}, {3, 200}, {4, 200},
	}
	for _, sched := range schedules {
		rng := rand.New(rand.NewSource(int64(sched[0])))
		ct := NewCtrie[int, int](IntHasher)
		oracle := make(map[int]int)
		var snaps []snapAt
		const keyRange = 16 // tiny: every CNode is shared by several keys
		for step := 0; step < sched[1]; step++ {
			k := rng.Intn(keyRange)
			if rng.Intn(3) == 0 {
				ct.Remove(k)
				delete(oracle, k)
			} else {
				ct.Put(k, step)
				oracle[k] = step
			}
			snaps = append(snaps, snapAt{
				snap:   ct.ReadOnlySnapshot(),
				oracle: cloneOracle(oracle),
				step:   step,
			})
		}
		for _, s := range snaps {
			assertFrozen(t, s)
		}
	}
}

// TestCtrieSnapshotFrozenUnderChurn keeps only a sliding window of
// snapshots so retired nodes actually age out and get recycled while older
// snapshots are still being validated — the schedule a stale retire rule
// (recycling a node some snapshot can reach) would fail.
func TestCtrieSnapshotFrozenUnderChurn(t *testing.T) {
	ct := NewCtrie[int, int](IntHasher)
	oracle := make(map[int]int)
	rng := rand.New(rand.NewSource(42))
	var window []snapAt
	const keyRange = 64
	steps := 30000
	if raceEnabled {
		steps = 8000
	}
	for step := 0; step < steps; step++ {
		k := rng.Intn(keyRange)
		if rng.Intn(3) == 0 {
			ct.Remove(k)
			delete(oracle, k)
		} else {
			ct.Put(k, step)
			oracle[k] = step
		}
		if step%50 == 0 {
			window = append(window, snapAt{
				snap:   ct.ReadOnlySnapshot(),
				oracle: cloneOracle(oracle),
				step:   step,
			})
		}
		if len(window) > 8 {
			assertFrozen(t, window[0])
			window = window[1:]
		}
	}
	for _, s := range window {
		assertFrozen(t, s)
	}
}

// TestCtrieSnapshotFrozenConcurrent races writers against a snapshotter.
// Every snapshot is read twice in full; the two reads must agree — a
// snapshot that changes between its own reads has been written through a
// node it shares with the live trie, or had one recycled under it. Run
// with -race.
func TestCtrieSnapshotFrozenConcurrent(t *testing.T) {
	ct := NewCtrie[int, int](IntHasher)
	const keyRange = 64
	for k := 0; k < keyRange; k += 2 {
		ct.Put(k, k)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(keyRange)
				switch rng.Intn(3) {
				case 0:
					ct.Put(k, rng.Int())
				case 1:
					ct.Remove(k)
				case 2:
					ct.Get(k)
				}
			}
		}(int64(w + 1))
	}
	for i := 0; i < 300; i++ {
		snap := ct.ReadOnlySnapshot()
		first := make(map[int]int)
		snap.Range(func(k, v int) bool {
			first[k] = v
			return true
		})
		second := make(map[int]int)
		snap.Range(func(k, v int) bool {
			second[k] = v
			return true
		})
		if len(first) != len(second) {
			t.Fatalf("snapshot %d changed between reads: %d keys then %d", i, len(first), len(second))
		}
		for k, v := range first {
			if second[k] != v {
				t.Fatalf("snapshot %d changed between reads: key %d was %d, became %d", i, k, v, second[k])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
