package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"proust/internal/conc"
	"proust/internal/stm"
)

// mapVariant describes one Proustian map implementation under test.
type mapVariant struct {
	name  string
	strat UpdateStrategy
	build func(s *stm.STM, lap LockAllocatorPolicy[int]) TxMap[int, int]
}

func mapVariants() []mapVariant {
	return []mapVariant{
		{
			name:  "eager",
			strat: Eager,
			build: func(s *stm.STM, lap LockAllocatorPolicy[int]) TxMap[int, int] {
				return NewMap[int, int](s, lap, conc.IntHasher)
			},
		},
		{
			name:  "lazy-snapshot",
			strat: Lazy,
			build: func(s *stm.STM, lap LockAllocatorPolicy[int]) TxMap[int, int] {
				return NewLazySnapshotMap[int, int](s, lap, conc.IntHasher)
			},
		},
		{
			name:  "lazy-memo",
			strat: Lazy,
			build: func(s *stm.STM, lap LockAllocatorPolicy[int]) TxMap[int, int] {
				return NewLazyMemoMap[int, int](s, lap, conc.IntHasher, false)
			},
		},
		{
			name:  "lazy-memo-combining",
			strat: Lazy,
			build: func(s *stm.STM, lap LockAllocatorPolicy[int]) TxMap[int, int] {
				return NewLazyMemoMap[int, int](s, lap, conc.IntHasher, true)
			},
		},
	}
}

// designPoint is one (STM policy × LAP kind) choice.
type designPoint struct {
	policy     stm.DetectionPolicy
	optimistic bool
}

func (p designPoint) String() string {
	lap := "pessimistic"
	if p.optimistic {
		lap = "optimistic"
	}
	return fmt.Sprintf("%s/%s", p.policy, lap)
}

func allPoints() []designPoint {
	var pts []designPoint
	policies := []stm.DetectionPolicy{
		stm.LazyLazy, stm.MixedEagerWWLazyRW, stm.EagerEager, stm.NOrec,
	}
	for _, pol := range policies {
		for _, opt := range []bool{true, false} {
			pts = append(pts, designPoint{policy: pol, optimistic: opt})
		}
	}
	return pts
}

// opaquePoints filters the design space to points where the strategy is
// opaque (CheckCombo), which is where concurrent correctness is asserted.
func opaquePoints(strat UpdateStrategy) []designPoint {
	var pts []designPoint
	for _, p := range allPoints() {
		if CheckCombo(p.optimistic, strat, p.policy) == nil {
			pts = append(pts, p)
		}
	}
	return pts
}

func newIntLAP(s *stm.STM, p designPoint) LockAllocatorPolicy[int] {
	if p.optimistic {
		return NewOptimisticLAP(s, func(k int) uint64 { return conc.IntHasher(k) }, 256)
	}
	return NewPessimisticLAP(func(k int) uint64 { return conc.IntHasher(k) }, 256, 5*time.Millisecond)
}

func forEachMapCombo(t *testing.T, onlyOpaque bool, f func(t *testing.T, s *stm.STM, m TxMap[int, int])) {
	t.Helper()
	for _, v := range mapVariants() {
		pts := allPoints()
		if onlyOpaque {
			pts = opaquePoints(v.strat)
		}
		for _, p := range pts {
			v, p := v, p
			t.Run(fmt.Sprintf("%s/%s", v.name, p), func(t *testing.T) {
				s := stm.New(stm.WithPolicy(p.policy))
				f(t, s, v.build(s, newIntLAP(s, p)))
			})
		}
	}
}

func TestMapBasicOps(t *testing.T) {
	forEachMapCombo(t, false, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		err := s.Atomically(func(tx *stm.Txn) error {
			if _, had := m.Put(tx, 1, 100); had {
				t.Error("Put on empty returned old value")
			}
			if v, ok := m.Get(tx, 1); !ok || v != 100 {
				t.Errorf("Get = %d,%v want 100,true", v, ok)
			}
			if old, had := m.Put(tx, 1, 200); !had || old != 100 {
				t.Errorf("Put replace = %d,%v want 100,true", old, had)
			}
			if !m.Contains(tx, 1) || m.Contains(tx, 2) {
				t.Error("Contains mismatch")
			}
			if n := m.Size(tx); n != 1 {
				t.Errorf("Size = %d, want 1", n)
			}
			if old, had := m.Remove(tx, 1); !had || old != 200 {
				t.Errorf("Remove = %d,%v want 200,true", old, had)
			}
			if _, had := m.Remove(tx, 1); had {
				t.Error("second Remove should miss")
			}
			if n := m.Size(tx); n != 0 {
				t.Errorf("Size = %d, want 0", n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Atomically: %v", err)
		}
	})
}

func TestMapCommittedStateVisible(t *testing.T) {
	forEachMapCombo(t, false, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		if err := s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 7, 70)
			m.Put(tx, 8, 80)
			m.Remove(tx, 8)
			return nil
		}); err != nil {
			t.Fatalf("writer: %v", err)
		}
		if err := s.Atomically(func(tx *stm.Txn) error {
			if v, ok := m.Get(tx, 7); !ok || v != 70 {
				t.Errorf("Get(7) = %d,%v", v, ok)
			}
			if m.Contains(tx, 8) {
				t.Error("key 8 should have been removed before commit")
			}
			if n := m.Size(tx); n != 1 {
				t.Errorf("Size = %d, want 1", n)
			}
			return nil
		}); err != nil {
			t.Fatalf("reader: %v", err)
		}
	})
}

func TestMapAbortRollsBack(t *testing.T) {
	errBoom := errors.New("boom")
	forEachMapCombo(t, false, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		// Committed baseline.
		if err := s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 1, 10)
			return nil
		}); err != nil {
			t.Fatalf("setup: %v", err)
		}
		// Aborted transaction: every kind of mutation must vanish.
		err := s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 1, 999) // overwrite
			m.Put(tx, 2, 20)  // fresh insert
			m.Remove(tx, 1)   // remove (of our own overwrite)
			return errBoom
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v", err)
		}
		if err := s.Atomically(func(tx *stm.Txn) error {
			if v, ok := m.Get(tx, 1); !ok || v != 10 {
				t.Errorf("Get(1) after abort = %d,%v want 10,true", v, ok)
			}
			if m.Contains(tx, 2) {
				t.Error("aborted insert leaked")
			}
			if n := m.Size(tx); n != 1 {
				t.Errorf("Size after abort = %d, want 1", n)
			}
			return nil
		}); err != nil {
			t.Fatalf("check: %v", err)
		}
	})
}

// TestMapReadOwnWrites: within a transaction, reads observe the
// transaction's own pending updates (shadow copies provide return values).
func TestMapReadOwnWrites(t *testing.T) {
	forEachMapCombo(t, false, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		if err := s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 1, 11)
			if v, ok := m.Get(tx, 1); !ok || v != 11 {
				t.Errorf("own put not visible: %d,%v", v, ok)
			}
			m.Remove(tx, 1)
			if m.Contains(tx, 1) {
				t.Error("own remove not visible")
			}
			m.Put(tx, 1, 12)
			if v, _ := m.Get(tx, 1); v != 12 {
				t.Errorf("re-put not visible: %d", v)
			}
			return nil
		}); err != nil {
			t.Fatalf("Atomically: %v", err)
		}
	})
}

// TestMapLazyInvisibleUntilCommit: with lazy updates, a concurrent reader
// does not observe pending operations before commit (no exclusion under the
// fully-lazy STM, so the reader can run mid-transaction).
func TestMapLazyInvisibleUntilCommit(t *testing.T) {
	for _, v := range mapVariants() {
		if v.strat != Lazy {
			continue
		}
		v := v
		t.Run(v.name, func(t *testing.T) {
			s := stm.New(stm.WithPolicy(stm.LazyLazy))
			m := v.build(s, newIntLAP(s, designPoint{policy: stm.LazyLazy, optimistic: true}))
			read := func() (int, bool) {
				var got int
				var ok bool
				if err := s.Atomically(func(tx *stm.Txn) error {
					got, ok = m.Get(tx, 42)
					return nil
				}); err != nil {
					t.Fatalf("reader: %v", err)
				}
				return got, ok
			}
			first := true
			if err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, 42, 1)
				if first {
					first = false
					done := make(chan struct{})
					go func() {
						defer close(done)
						if _, ok := read(); ok {
							t.Error("pending lazy put visible before commit")
						}
					}()
					<-done
				}
				return nil
			}); err != nil {
				t.Fatalf("writer: %v", err)
			}
			if got, ok := read(); !ok || got != 1 {
				t.Fatalf("after commit Get = %d,%v want 1,true", got, ok)
			}
		})
	}
}

// TestMapDisjointKeysNoFalseConflict demonstrates the whole point of
// conflict abstraction: while a transaction with a pending write on key A is
// parked, operations on a disjoint key B proceed, and operations on key A
// itself conflict.
func TestMapDisjointKeysNoFalseConflict(t *testing.T) {
	// Encounter-time locking on the conflict-abstraction locations makes
	// the conflict observable while the first transaction is parked.
	s := stm.New(stm.WithPolicy(stm.MixedEagerWWLazyRW), stm.WithMaxAttempts(3))
	lap := NewOptimisticLAP(s, func(k int) uint64 { return conc.IntHasher(k) }, 256)
	m := NewMap[int, int](s, lap, conc.IntHasher)
	// Prepopulate both keys so the puts below are pure replacements: an
	// insert additionally writes the committed size's conflict location,
	// which is a genuine (if coarse) conflict between any two size-changing
	// transactions, not the per-key disjointness this test demonstrates.
	if err := s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 1, 1)
		m.Put(tx, 2, 2)
		return nil
	}); err != nil {
		t.Fatalf("prepopulate: %v", err)
	}

	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 1, 10)
			once.Do(func() { close(holding) })
			<-release
			return nil
		})
	}()
	<-holding

	// Disjoint key: commits immediately despite the parked writer.
	if err := s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 2, 20)
		return nil
	}); err != nil {
		t.Fatalf("disjoint-key writer: %v (false conflict!)", err)
	}
	// Same key: genuine conflict.
	err := s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 1, 11)
		return nil
	})
	if !errors.Is(err, stm.ErrMaxAttempts) {
		t.Fatalf("same-key writer err = %v, want ErrMaxAttempts", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked writer: %v", err)
	}
}

func TestMapVsOracleSingleThread(t *testing.T) {
	for _, v := range mapVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			s := stm.New()
			m := v.build(s, newIntLAP(s, designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}))
			oracle := make(map[int]int)
			f := func(ops []uint16) bool {
				ok := true
				for i, op := range ops {
					k := int(op % 64)
					err := s.Atomically(func(tx *stm.Txn) error {
						switch op % 3 {
						case 0:
							gotOld, gotHad := m.Put(tx, k, i)
							wantOld, wantHad := oracle[k]
							if gotHad != wantHad || (wantHad && gotOld != wantOld) {
								ok = false
							}
						case 1:
							gotOld, gotHad := m.Remove(tx, k)
							wantOld, wantHad := oracle[k]
							if gotHad != wantHad || (wantHad && gotOld != wantOld) {
								ok = false
							}
						case 2:
							got, gotOK := m.Get(tx, k)
							want, wantOK := oracle[k]
							if gotOK != wantOK || (wantOK && got != want) {
								ok = false
							}
						}
						return nil
					})
					if err != nil {
						return false
					}
					// Mirror committed effects into the oracle.
					switch op % 3 {
					case 0:
						oracle[k] = i
					case 1:
						delete(oracle, k)
					}
				}
				var size int
				_ = s.Atomically(func(tx *stm.Txn) error {
					size = m.Size(tx)
					return nil
				})
				return ok && size == len(oracle)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMapAtomicPairs is the map-level opacity/atomicity stress: writers
// store the same value under k and k+1000 in a single transaction; readers
// must always observe the pair equal.
func TestMapAtomicPairs(t *testing.T) {
	const (
		keys     = 8
		pairGap  = 1000
		duration = 60 * time.Millisecond
	)
	forEachMapCombo(t, true, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		if err := s.Atomically(func(tx *stm.Txn) error {
			for k := 0; k < keys; k++ {
				m.Put(tx, k, 0)
				m.Put(tx, k+pairGap, 0)
			}
			return nil
		}); err != nil {
			t.Fatalf("setup: %v", err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := rng.Intn(keys)
					val := rng.Int()
					if err := s.Atomically(func(tx *stm.Txn) error {
						m.Put(tx, k, val)
						m.Put(tx, k+pairGap, val)
						return nil
					}); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}(int64(w))
		}
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + 100))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := rng.Intn(keys)
					if err := s.Atomically(func(tx *stm.Txn) error {
						a, okA := m.Get(tx, k)
						b, okB := m.Get(tx, k+pairGap)
						if okA != okB || a != b {
							t.Errorf("atomicity violation: pair %d = (%d,%v)/(%d,%v)", k, a, okA, b, okB)
						}
						return nil
					}); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
				}
			}(int64(r))
		}
		time.Sleep(duration)
		close(stop)
		wg.Wait()
	})
}

// TestMapConcurrentSizeConservation: the committed Size must equal the net
// effect of all committed operations, as reported by their return values.
func TestMapConcurrentSizeConservation(t *testing.T) {
	forEachMapCombo(t, true, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		var delta atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 300; i++ {
					k := rng.Intn(32)
					if rng.Intn(2) == 0 {
						var inserted bool
						if err := s.Atomically(func(tx *stm.Txn) error {
							_, had := m.Put(tx, k, i)
							inserted = !had
							return nil
						}); err != nil {
							t.Errorf("put: %v", err)
							return
						}
						if inserted {
							delta.Add(1)
						}
					} else {
						var removed bool
						if err := s.Atomically(func(tx *stm.Txn) error {
							_, had := m.Remove(tx, k)
							removed = had
							return nil
						}); err != nil {
							t.Errorf("remove: %v", err)
							return
						}
						if removed {
							delta.Add(-1)
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
		var size int
		if err := s.Atomically(func(tx *stm.Txn) error {
			size = m.Size(tx)
			return nil
		}); err != nil {
			t.Fatalf("size: %v", err)
		}
		if int64(size) != delta.Load() {
			t.Fatalf("Size = %d, net committed effect = %d", size, delta.Load())
		}
	})
}
