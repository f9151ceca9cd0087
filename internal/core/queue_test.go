package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proust/internal/stm"
)

func newTxQueue(s *stm.STM, p designPoint) *Queue[int] {
	var lap LockAllocatorPolicy[QState]
	if p.optimistic {
		lap = NewOptimisticLAP(s, QStateHash, 4)
	} else {
		lap = NewPessimisticLAP[QState](QStateHash, 4, 5*time.Millisecond)
	}
	return NewQueue[int](s, lap)
}

func forEachQueueCombo(t *testing.T, f func(t *testing.T, s *stm.STM, q *Queue[int])) {
	t.Helper()
	for _, p := range opaquePoints(Eager) {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(p.policy))
			f(t, s, newTxQueue(s, p))
		})
	}
}

func TestQueueFIFO(t *testing.T) {
	forEachQueueCombo(t, func(t *testing.T, s *stm.STM, q *Queue[int]) {
		err := s.Atomically(func(tx *stm.Txn) error {
			if _, ok := q.Peek(tx); ok {
				t.Error("Peek on empty should miss")
			}
			q.Enqueue(tx, 1)
			q.Enqueue(tx, 2)
			q.Enqueue(tx, 3)
			if n := q.Size(tx); n != 3 {
				t.Errorf("Size = %d, want 3", n)
			}
			for want := 1; want <= 3; want++ {
				if v, ok := q.Dequeue(tx); !ok || v != want {
					t.Errorf("Dequeue = %d,%v want %d", v, ok, want)
				}
			}
			if _, ok := q.Dequeue(tx); ok {
				t.Error("Dequeue on empty should miss")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Atomically: %v", err)
		}
	})
}

func TestQueueAbortRollsBack(t *testing.T) {
	errBoom := errors.New("boom")
	forEachQueueCombo(t, func(t *testing.T, s *stm.STM, q *Queue[int]) {
		if err := s.Atomically(func(tx *stm.Txn) error {
			q.Enqueue(tx, 10)
			q.Enqueue(tx, 20)
			return nil
		}); err != nil {
			t.Fatalf("setup: %v", err)
		}
		_ = s.Atomically(func(tx *stm.Txn) error {
			q.Enqueue(tx, 30)                   // must vanish
			if v, _ := q.Dequeue(tx); v != 10 { // removes committed 10
				t.Errorf("Dequeue = %d, want 10", v)
			}
			return errBoom
		})
		if err := s.Atomically(func(tx *stm.Txn) error {
			if n := q.Size(tx); n != 2 {
				t.Errorf("Size after abort = %d, want 2", n)
			}
			if v, ok := q.Peek(tx); !ok || v != 10 {
				t.Errorf("Peek after abort = %d,%v want 10 (dequeue undone at the FRONT)", v, ok)
			}
			var got []int
			for {
				v, ok := q.Dequeue(tx)
				if !ok {
					break
				}
				got = append(got, v)
			}
			want := []int{10, 20}
			if len(got) != len(want) {
				t.Fatalf("drained %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("FIFO order broken after abort: %v, want %v", got, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("check: %v", err)
		}
	})
}

func TestQueueDrainOrderAfterAbortedInterleavings(t *testing.T) {
	forEachQueueCombo(t, func(t *testing.T, s *stm.STM, q *Queue[int]) {
		if err := s.Atomically(func(tx *stm.Txn) error {
			for i := 1; i <= 5; i++ {
				q.Enqueue(tx, i)
			}
			return nil
		}); err != nil {
			t.Fatalf("setup: %v", err)
		}
		// Abort a txn that dequeued two and enqueued one.
		_ = s.Atomically(func(tx *stm.Txn) error {
			q.Dequeue(tx)
			q.Dequeue(tx)
			q.Enqueue(tx, 99)
			return errors.New("abort")
		})
		var got []int
		if err := s.Atomically(func(tx *stm.Txn) error {
			got = got[:0]
			for {
				v, ok := q.Dequeue(tx)
				if !ok {
					break
				}
				got = append(got, v)
			}
			return nil
		}); err != nil {
			t.Fatalf("drain: %v", err)
		}
		want := []int{1, 2, 3, 4, 5}
		if len(got) != len(want) {
			t.Fatalf("drained %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v, want %v (inverses must restore FIFO order)", got, want)
			}
		}
	})
}

// TestQueueConservation: concurrent producers and consumers; every committed
// enqueue is dequeued exactly once.
func TestQueueConservation(t *testing.T) {
	forEachQueueCombo(t, func(t *testing.T, s *stm.STM, q *Queue[int]) {
		const producers = 4
		const perP = 100
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perP; i++ {
					v := p*perP + i
					if err := s.Atomically(func(tx *stm.Txn) error {
						q.Enqueue(tx, v)
						return nil
					}); err != nil {
						t.Errorf("enqueue: %v", err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		seen := make(map[int]bool)
		var mu sync.Mutex
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					var v int
					var ok bool
					if err := s.Atomically(func(tx *stm.Txn) error {
						v, ok = q.Dequeue(tx)
						return nil
					}); err != nil {
						t.Errorf("dequeue: %v", err)
						return
					}
					if !ok {
						return
					}
					mu.Lock()
					if seen[v] {
						t.Errorf("value %d dequeued twice", v)
					}
					seen[v] = true
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if len(seen) != producers*perP {
			t.Fatalf("dequeued %d unique values, want %d", len(seen), producers*perP)
		}
	})
}

// TestQueueNeverDequeuesAbortedEnqueue: an enqueue that aborts must never
// be observed by a committed dequeue. One producer enqueues a negative value
// and then aborts, another commits positive values, and a consumer dequeues
// twice per transaction — the pattern that walks past the last committed
// item onto an uncommitted one unless a dequeue near emptiness conflicts
// with the enqueuer at the tail.
func TestQueueNeverDequeuesAbortedEnqueue(t *testing.T) {
	points := []struct {
		backend    string
		optimistic bool
	}{{"ccstm", false}, {"eager", true}}
	for _, pt := range points {
		pt := pt
		name := pt.backend + "/pessimistic"
		if pt.optimistic {
			name = pt.backend + "/optimistic"
		}
		t.Run(name, func(t *testing.T) {
			s := stm.New(stm.WithBackend(pt.backend))
			q := newTxQueue(s, designPoint{optimistic: pt.optimistic})
			errAbort := errors.New("abort")
			stop := make(chan struct{})
			var wg sync.WaitGroup
			run := func(f func(i int)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						f(i)
					}
				}()
			}
			run(func(i int) {
				_ = s.Atomically(func(tx *stm.Txn) error {
					q.Enqueue(tx, -i)
					return errAbort
				})
			})
			run(func(i int) {
				_ = s.Atomically(func(tx *stm.Txn) error {
					q.Enqueue(tx, i)
					return nil
				})
			})
			var bad, negLen atomic.Int64
			run(func(int) {
				var a, b int
				var n, live int
				if err := s.Atomically(func(tx *stm.Txn) error {
					a, _ = q.Dequeue(tx)
					b, _ = q.Dequeue(tx)
					n, live = q.Size(tx), q.dq.base.Len()
					return nil
				}); err != nil {
					return
				}
				if a < 0 || b < 0 {
					bad.Add(1)
				}
				if n < 0 || live < 0 {
					negLen.Add(1)
				}
			})
			time.Sleep(250 * time.Millisecond)
			close(stop)
			wg.Wait()
			if n := bad.Load(); n > 0 {
				t.Errorf("%d committed dequeues returned a value whose enqueue aborted", n)
			}
			if n := negLen.Load(); n > 0 {
				t.Errorf("queue length went negative in %d transactions", n)
			}
		})
	}
}

func TestQStateHashDistinct(t *testing.T) {
	if QStateHash(QHead) == QStateHash(QTail) {
		t.Fatal("queue abstract-state elements must hash to distinct locations")
	}
}
