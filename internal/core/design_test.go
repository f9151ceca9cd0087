package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proust/internal/stm"
)

// theoremHarness runs the bank invariant under one design-space point: the
// total across all accounts of a Proustian map must be constant in every
// transactional observation (opacity), and exact at quiescence
// (serializability of committed effects).
func theoremHarness(t *testing.T, s *stm.STM, m TxMap[int, int]) {
	t.Helper()
	const (
		accounts = 6
		initial  = 100
		total    = accounts * initial
		duration = 60 * time.Millisecond
	)
	if err := s.Atomically(func(tx *stm.Txn) error {
		for a := 0; a < accounts; a++ {
			m.Put(tx, a, initial)
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
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					continue
				}
				amt := rng.Intn(20) + 1
				if err := s.Atomically(func(tx *stm.Txn) error {
					fv, _ := m.Get(tx, from)
					tv, _ := m.Get(tx, to)
					m.Put(tx, from, fv-amt)
					m.Put(tx, to, tv+amt)
					return nil
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Atomically(func(tx *stm.Txn) error {
					sum := 0
					for a := 0; a < accounts; a++ {
						v, ok := m.Get(tx, a)
						if !ok {
							t.Errorf("account %d missing", a)
							return nil
						}
						sum += v
					}
					if sum != total {
						t.Errorf("opacity violation: observed total %d, want %d", sum, total)
					}
					return nil
				}); err != nil {
					t.Errorf("auditor: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()

	if err := s.Atomically(func(tx *stm.Txn) error {
		sum := 0
		for a := 0; a < accounts; a++ {
			v, _ := m.Get(tx, a)
			sum += v
		}
		if sum != total {
			t.Errorf("final total %d, want %d", sum, total)
		}
		return nil
	}); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}

// TestTheoremPessimisticOpaque: Theorem 5.1 — pessimistic Proust (eager or
// lazy updates) is opaque on every STM policy.
func TestTheoremPessimisticOpaque(t *testing.T) {
	for _, v := range mapVariants() {
		for _, pol := range []stm.DetectionPolicy{stm.LazyLazy, stm.MixedEagerWWLazyRW, stm.EagerEager} {
			v, pol := v, pol
			t.Run(fmt.Sprintf("%s/%s", v.name, pol), func(t *testing.T) {
				s := stm.New(stm.WithPolicy(pol))
				m := v.build(s, newIntLAP(s, designPoint{policy: pol, optimistic: false}))
				theoremHarness(t, s, m)
			})
		}
	}
}

// TestTheoremEagerOptimisticOpaque: Theorem 5.2 — eager/optimistic Proust is
// opaque when the STM detects all conflicts eagerly (visible readers).
func TestTheoremEagerOptimisticOpaque(t *testing.T) {
	// Both contention managers: invalidation (Backoff) and greedy
	// (Timestamp) arbitrate r/w conflicts differently but must both be
	// safe.
	for _, cm := range []stm.ContentionManager{stm.Backoff{}, stm.Timestamp{}} {
		cm := cm
		t.Run(cm.Name(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(stm.EagerEager), stm.WithContentionManager(cm))
			m := v0EagerMap(s)
			theoremHarness(t, s, m)
		})
	}
}

// TestAbortedEagerWriteInvisibleWhileParked makes Theorem 5.2's rollback
// obligation deterministic with two transactions. The aborter writes key k
// of an eager map and aborts; an OnAbort hook registered after the write —
// so it runs before the write's inverse — parks it there while a
// competitor reads k. Inverses run while the aborter still owns its
// conflict-abstraction location (optimistic) or abstract lock
// (pessimistic), so the competitor cannot get past its leading access until
// the aborter has undone the write and released; reading the aborted value
// means something was released before the inverse ran.
func TestAbortedEagerWriteInvisibleWhileParked(t *testing.T) {
	const k, committed, aborted = 3, 10, 99
	for _, optimistic := range []bool{true, false} {
		p := designPoint{policy: stm.EagerEager, optimistic: optimistic}
		t.Run(p.String(), func(t *testing.T) {
			s := stm.New(stm.WithBackend("eager"))
			m := mapVariants()[0].build(s, newIntLAP(s, p))
			if err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, k, committed)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			parked, resume, aborterDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(aborterDone)
				first := true
				_ = s.Atomically(func(tx *stm.Txn) error {
					m.Put(tx, k, aborted)
					if first {
						first = false
						tx.OnAbort(func() {
							close(parked)
							<-resume
						})
					}
					return fmt.Errorf("abort")
				})
			}()
			<-parked

			var sawAborted atomic.Bool
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				if err := s.Atomically(func(tx *stm.Txn) error {
					if v, _ := m.Get(tx, k); v == aborted {
						sawAborted.Store(true)
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
				}
			}()
			select {
			case <-readerDone:
			case <-time.After(50 * time.Millisecond): // blocked, as it should be
			}
			close(resume)
			<-aborterDone
			<-readerDone
			if sawAborted.Load() {
				t.Fatal("a competitor read the aborted write before its inverse ran")
			}
			if err := s.Atomically(func(tx *stm.Txn) error {
				if v, ok := m.Get(tx, k); !ok || v != committed {
					t.Errorf("after the abort: Get(%d) = (%d,%v), want (%d,true)", k, v, ok, committed)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func v0EagerMap(s *stm.STM) TxMap[int, int] {
	for _, v := range mapVariants() {
		if v.name == "eager" {
			return v.build(s, newIntLAP(s, designPoint{policy: stm.EagerEager, optimistic: true}))
		}
	}
	panic("eager variant missing")
}

// TestTheoremLazyOptimisticOpaque: Theorem 5.3 — lazy/optimistic Proust is
// opaque on every STM policy, including the fully lazy one, thanks to shadow
// copies and the write/op/read bracketing.
func TestTheoremLazyOptimisticOpaque(t *testing.T) {
	for _, v := range mapVariants() {
		if v.strat != Lazy {
			continue
		}
		for _, pol := range []stm.DetectionPolicy{stm.LazyLazy, stm.MixedEagerWWLazyRW, stm.EagerEager} {
			v, pol := v, pol
			t.Run(fmt.Sprintf("%s/%s", v.name, pol), func(t *testing.T) {
				s := stm.New(stm.WithPolicy(pol))
				m := v.build(s, newIntLAP(s, designPoint{policy: pol, optimistic: true}))
				theoremHarness(t, s, m)
			})
		}
	}
}

// TestMixedStructureTransaction: one transaction spans a Proustian map, a
// Proustian priority queue and a raw STM reference — the composability that
// integration with the underlying STM buys (and standalone boosting lacks).
func TestMixedStructureTransaction(t *testing.T) {
	s := stm.New()
	m := NewMap[int, int](s, newIntLAP(s, designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}), hashInt)
	q := NewLazyPQueue[int](s, NewOptimisticLAP(s, PQStateHash, 4), intLess, intEq)
	balance := stm.NewRef(s, 100)

	err := s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 1, 10)
		q.Insert(tx, 10)
		balance.Set(tx, balance.Get(tx)-10)
		return nil
	})
	if err != nil {
		t.Fatalf("mixed txn: %v", err)
	}
	if err := s.Atomically(func(tx *stm.Txn) error {
		if v, ok := m.Get(tx, 1); !ok || v != 10 {
			t.Errorf("map: %d,%v", v, ok)
		}
		if v, ok := q.Min(tx); !ok || v != 10 {
			t.Errorf("queue: %d,%v", v, ok)
		}
		if b := balance.Get(tx); b != 90 {
			t.Errorf("balance: %d", b)
		}
		return nil
	}); err != nil {
		t.Fatalf("check: %v", err)
	}

	// And the whole mixed transaction aborts atomically.
	errBoom := fmt.Errorf("boom")
	_ = s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 2, 20)
		q.Insert(tx, 5)
		balance.Set(tx, 0)
		return errBoom
	})
	if err := s.Atomically(func(tx *stm.Txn) error {
		if m.Contains(tx, 2) {
			t.Error("map mutation leaked from aborted mixed txn")
		}
		if v, _ := q.Min(tx); v != 10 {
			t.Errorf("queue min = %d, want 10", v)
		}
		if b := balance.Get(tx); b != 90 {
			t.Errorf("balance = %d, want 90", b)
		}
		return nil
	}); err != nil {
		t.Fatalf("post-abort check: %v", err)
	}
}

func hashInt(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }
