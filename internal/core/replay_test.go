package core

import (
	"fmt"
	"testing"

	"proust/internal/conc"
	"proust/internal/stm"
)

// atomicallyOrPanic runs s.Atomically(fn) and returns its error, or the
// panic it raised as an error, so a failed commit fails the test cleanly.
func atomicallyOrPanic(s *stm.STM, fn func(tx *stm.Txn) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return s.Atomically(fn)
}

// TestSnapshotLogCommitRebasesOnMovedBase pins the rebase in SnapshotLog's
// commit: transaction A runs its last operation against a shadow of the
// base, then — on A's first attempt, from inside its body — a commuting
// transaction B commits, which moves the base; A then commits. A's shadow
// was cut before B's commit, so A must rebase it onto the current base
// before adopting it: both effects must survive, on the first attempt.
func TestSnapshotLogCommitRebasesOnMovedBase(t *testing.T) {
	for _, p := range opaquePoints(Lazy) {
		t.Run("map/"+p.String(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(p.policy))
			m := NewLazySnapshotMap[int, int](s, newIntLAP(s, p), conc.IntHasher)
			if err := s.Atomically(func(tx *stm.Txn) error {
				for k := 0; k < 64; k++ {
					m.Put(tx, k, k)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// Overwrites of present keys leave size alone, so A and B share
			// no STM location and both commit.
			attempts := 0
			err := atomicallyOrPanic(s, func(tx *stm.Txn) error {
				attempts++
				m.Put(tx, 1, -1)
				if attempts > 1 {
					return nil
				}
				done := make(chan error)
				go func() {
					done <- s.Atomically(func(tx *stm.Txn) error {
						m.Put(tx, 2, -2)
						return nil
					})
				}()
				return <-done
			})
			if err != nil {
				t.Fatalf("transaction A: %v", err)
			}
			if attempts != 1 {
				t.Fatalf("transaction A took %d attempts: the interleaving was not exercised", attempts)
			}
			if err := s.Atomically(func(tx *stm.Txn) error {
				for k, want := range map[int]int{1: -1, 2: -2, 3: 3} {
					if v, ok := m.Get(tx, k); !ok || v != want {
						t.Errorf("Get(%d) = (%d,%v), want %d", k, v, ok, want)
					}
				}
				if n := m.Size(tx); n != 64 {
					t.Errorf("Size = %d, want 64", n)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("pqueue", func(t *testing.T) {
		// Every queue mutation writes size, so no two wrapper-level writers
		// commit across each other. B therefore drives the log directly: an
		// insert that touches no STM location, committed through the same
		// SnapshotLog commit path.
		s := stm.New()
		q := NewLazyPQueue[int](s, NewOptimisticLAP(s, PQStateHash, 4), intLess, intEq)
		if err := s.Atomically(func(tx *stm.Txn) error {
			q.Insert(tx, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		err := atomicallyOrPanic(s, func(tx *stm.Txn) error {
			attempts++
			q.Insert(tx, 5)
			if attempts > 1 {
				return nil
			}
			done := make(chan error)
			go func() {
				done <- s.Atomically(func(tx *stm.Txn) error {
					q.log.Shadow(tx).Insert(7)
					q.log.Append(tx, pqOp[int]{v: 7, insert: true})
					return nil
				})
			}()
			return <-done
		})
		if err != nil {
			t.Fatalf("transaction A: %v", err)
		}
		if attempts != 1 {
			t.Fatalf("transaction A took %d attempts: the interleaving was not exercised", attempts)
		}
		if err := s.Atomically(func(tx *stm.Txn) error {
			var got []int
			for {
				v, ok := q.RemoveMin(tx)
				if !ok {
					break
				}
				got = append(got, v)
			}
			if fmt.Sprint(got) != "[1 5 7]" {
				t.Errorf("queue drains as %v, want [1 5 7]", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
