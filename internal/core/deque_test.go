package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"proust/internal/stm"
)

func newTxDeque(s *stm.STM, p designPoint) *Deque[int] {
	var lap LockAllocatorPolicy[DQState]
	if p.optimistic {
		lap = NewOptimisticLAP(s, DQStateHash, 4)
	} else {
		lap = NewPessimisticLAP[DQState](DQStateHash, 4, 5*time.Millisecond)
	}
	return NewDeque[int](s, lap)
}

func forEachDequeCombo(t *testing.T, f func(t *testing.T, s *stm.STM, q *Deque[int])) {
	t.Helper()
	for _, p := range opaquePoints(Eager) {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(p.policy))
			f(t, s, newTxDeque(s, p))
		})
	}
}

func TestDequeBothEnds(t *testing.T) {
	forEachDequeCombo(t, func(t *testing.T, s *stm.STM, q *Deque[int]) {
		err := s.Atomically(func(tx *stm.Txn) error {
			if _, ok := q.PeekFront(tx); ok {
				t.Error("PeekFront on empty should miss")
			}
			if _, ok := q.PopBack(tx); ok {
				t.Error("PopBack on empty should miss")
			}
			q.PushBack(tx, 2)
			q.PushFront(tx, 1)
			q.PushBack(tx, 3) // [1 2 3]
			if v, ok := q.PeekFront(tx); !ok || v != 1 {
				t.Errorf("PeekFront = %d,%v", v, ok)
			}
			if v, ok := q.PeekBack(tx); !ok || v != 3 {
				t.Errorf("PeekBack = %d,%v", v, ok)
			}
			if n := q.Size(tx); n != 3 {
				t.Errorf("Size = %d, want 3", n)
			}
			if v, _ := q.PopFront(tx); v != 1 {
				t.Errorf("PopFront = %d, want 1", v)
			}
			if v, _ := q.PopBack(tx); v != 3 {
				t.Errorf("PopBack = %d, want 3", v)
			}
			if v, _ := q.PopFront(tx); v != 2 {
				t.Errorf("final PopFront = %d, want 2", v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Atomically: %v", err)
		}
	})
}

func TestDequeAbortRestoresBothEnds(t *testing.T) {
	errBoom := errors.New("boom")
	forEachDequeCombo(t, func(t *testing.T, s *stm.STM, q *Deque[int]) {
		if err := s.Atomically(func(tx *stm.Txn) error {
			for _, v := range []int{1, 2, 3, 4} {
				q.PushBack(tx, v)
			}
			return nil
		}); err != nil {
			t.Fatalf("setup: %v", err)
		}
		_ = s.Atomically(func(tx *stm.Txn) error {
			q.PopFront(tx) // 1
			q.PopBack(tx)  // 4
			q.PushFront(tx, 0)
			q.PushBack(tx, 5)
			return errBoom
		})
		if err := s.Atomically(func(tx *stm.Txn) error {
			if n := q.Size(tx); n != 4 {
				t.Errorf("Size after abort = %d, want 4", n)
			}
			var got []int
			for {
				v, ok := q.PopFront(tx)
				if !ok {
					break
				}
				got = append(got, v)
			}
			want := []int{1, 2, 3, 4}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("order after abort %v, want %v", got, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("check: %v", err)
		}
	})
}

// TestDequeWorkStealing: one owner pushes/pops at the back while thieves
// steal from the front (the classic work-stealing pattern); every task is
// executed exactly once.
func TestDequeWorkStealing(t *testing.T) {
	forEachDequeCombo(t, func(t *testing.T, s *stm.STM, q *Deque[int]) {
		const tasks = 300
		seen := make(map[int]bool)
		var mu sync.Mutex
		record := func(v int) {
			mu.Lock()
			defer mu.Unlock()
			if seen[v] {
				t.Errorf("task %d executed twice", v)
			}
			seen[v] = true
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // owner
			defer wg.Done()
			for i := 0; i < tasks; i++ {
				if err := s.Atomically(func(tx *stm.Txn) error {
					q.PushBack(tx, i)
					return nil
				}); err != nil {
					t.Errorf("owner push: %v", err)
					return
				}
				if i%3 == 2 {
					var v int
					var ok bool
					if err := s.Atomically(func(tx *stm.Txn) error {
						v, ok = q.PopBack(tx)
						return nil
					}); err != nil {
						t.Errorf("owner pop: %v", err)
						return
					}
					if ok {
						record(v)
					}
				}
			}
		}()
		for th := 0; th < 2; th++ {
			wg.Add(1)
			go func() { // thief
				defer wg.Done()
				misses := 0
				for misses < 100 {
					var v int
					var ok bool
					if err := s.Atomically(func(tx *stm.Txn) error {
						v, ok = q.PopFront(tx)
						return nil
					}); err != nil {
						t.Errorf("thief: %v", err)
						return
					}
					if ok {
						record(v)
						misses = 0
					} else {
						misses++
					}
				}
			}()
		}
		wg.Wait()
		// Drain leftovers.
		for {
			var v int
			var ok bool
			if err := s.Atomically(func(tx *stm.Txn) error {
				v, ok = q.PopFront(tx)
				return nil
			}); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if !ok {
				break
			}
			record(v)
		}
		if len(seen) != tasks {
			t.Fatalf("executed %d unique tasks, want %d", len(seen), tasks)
		}
	})
}

// TestDequePopAbortedAfterBaseMutationRestoresItem pins the registration
// order deterministically: a pop mutates the base, and the size update
// after it may abort the attempt, so the undo record must already be logged
// by then. A writer parked while it owns the size ref
// (its PushBack takes only W(Back) on a long deque) makes a thief's
// PopFront (only W(Front)) abort exactly at the size update; the popped
// item must be back at the front once the thief has given up.
func TestDequePopAbortedAfterBaseMutationRestoresItem(t *testing.T) {
	s := stm.New(stm.WithBackend("eager"), stm.WithContentionManager(stm.Timestamp{}), stm.WithMaxAttempts(1))
	q := newTxDeque(s, designPoint{policy: stm.EagerEager, optimistic: true})
	if err := s.Atomically(func(tx *stm.Txn) error {
		for v := 1; v <= 4; v++ {
			q.PushBack(tx, v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	parked, resume, writerDone := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		writerDone <- s.Atomically(func(tx *stm.Txn) error {
			q.PushBack(tx, 5)
			close(parked)
			<-resume
			return nil
		})
	}()
	<-parked
	err := s.Atomically(func(tx *stm.Txn) error {
		q.PopFront(tx) // younger than the writer: loses the size ref and gives up
		return nil
	})
	close(resume)
	if werr := <-writerDone; werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if !errors.Is(err, stm.ErrMaxAttempts) {
		t.Fatalf("thief: err = %v, want ErrMaxAttempts", err)
	}
	if err := s.Atomically(func(tx *stm.Txn) error {
		for want := 1; want <= 5; want++ {
			if v, ok := q.PopFront(tx); !ok || v != want {
				t.Errorf("PopFront = (%d,%v), want (%d,true): the aborted pop was not undone", v, ok, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDQStateHashDistinct(t *testing.T) {
	if DQStateHash(DQFront) == DQStateHash(DQBack) {
		t.Fatal("deque abstract-state elements must hash to distinct locations")
	}
}
