package core

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"proust/internal/stm"
)

// omIndexBits: keys 0..255 embedded directly.
const omIndexBits = 8

func newOrderedMap(s *stm.STM, p designPoint, stripes int) *OrderedMap[int, int] {
	var lap LockAllocatorPolicy[int]
	if p.optimistic {
		lap = NewOptimisticLAP(s, func(st int) uint64 { return uint64(st) * 0x9e3779b97f4a7c15 }, 64)
	} else {
		lap = NewPessimisticLAP(func(st int) uint64 { return uint64(st) * 0x9e3779b97f4a7c15 }, 64, 5*time.Millisecond)
	}
	return NewOrderedMap[int, int](s, lap, intCmp, func(k int) uint64 { return uint64(k) }, omIndexBits, stripes)
}

func TestOrderedMapBasics(t *testing.T) {
	for _, p := range opaquePoints(Eager) {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(p.policy))
			m := newOrderedMap(s, p, 16)
			err := s.Atomically(func(tx *stm.Txn) error {
				for _, k := range []int{40, 10, 30, 20} {
					m.Put(tx, k, k*10)
				}
				if v, ok := m.Get(tx, 30); !ok || v != 300 {
					t.Errorf("Get(30) = %d,%v", v, ok)
				}
				if m.Contains(tx, 99) {
					t.Error("Contains(99) should miss")
				}
				if n := m.Size(tx); n != 4 {
					t.Errorf("Size = %d, want 4", n)
				}
				if old, had := m.Remove(tx, 10); !had || old != 100 {
					t.Errorf("Remove(10) = %d,%v", old, had)
				}
				got := m.RangeQuery(tx, 15, 35)
				if len(got) != 2 || got[0].Key != 20 || got[1].Key != 30 {
					t.Errorf("RangeQuery(15,35) = %v", got)
				}
				if out := m.RangeQuery(tx, 50, 40); out != nil {
					t.Errorf("inverted range = %v, want nil", out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Atomically: %v", err)
			}
		})
	}
}

func TestOrderedMapAbortRollsBack(t *testing.T) {
	s := stm.New()
	p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
	m := newOrderedMap(s, p, 16)
	if err := s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 1, 10)
		return nil
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	_ = s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 2, 20)
		m.Remove(tx, 1)
		return errors.New("abort")
	})
	if err := s.Atomically(func(tx *stm.Txn) error {
		if !m.Contains(tx, 1) || m.Contains(tx, 2) {
			t.Error("abort did not restore the map")
		}
		if n := m.Size(tx); n != 1 {
			t.Errorf("Size = %d, want 1", n)
		}
		return nil
	}); err != nil {
		t.Fatalf("check: %v", err)
	}
}

// TestOrderedMapRemoveAbortedAfterBaseMutationRestoresBinding pins the
// order of an eager remove: it mutates the base, and the size update after
// it may abort the attempt, so the undo record must already be logged by
// then. A writer parked while it owns the size ref (its Put of a new key
// takes only its own stripe) makes a thief's Remove on another stripe abort
// exactly at the size update; the removed binding must be back once the
// thief has given up.
func TestOrderedMapRemoveAbortedAfterBaseMutationRestoresBinding(t *testing.T) {
	s := stm.New(stm.WithBackend("eager"), stm.WithContentionManager(stm.Timestamp{}), stm.WithMaxAttempts(1))
	m := newOrderedMap(s, designPoint{policy: stm.EagerEager, optimistic: true}, 16)
	if err := s.Atomically(func(tx *stm.Txn) error {
		m.Put(tx, 200, 2000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	parked, resume, writerDone := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		writerDone <- s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 10, 100)
			close(parked)
			<-resume
			return nil
		})
	}()
	<-parked
	err := s.Atomically(func(tx *stm.Txn) error {
		m.Remove(tx, 200) // younger than the writer: loses the size ref and gives up
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
		if v, ok := m.Get(tx, 200); !ok || v != 2000 {
			t.Errorf("Get(200) = (%d,%v), want (2000,true): the aborted remove was not undone", v, ok)
		}
		if n := m.Size(tx); n != 2 {
			t.Errorf("Size = %d, want 2", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedMapRangeConflictSemantics: an update inside a parked range
// query's interval conflicts; an update outside it (different stripe)
// commutes. This is the Section 1 motivating example made executable.
func TestOrderedMapRangeConflictSemantics(t *testing.T) {
	s := stm.New(stm.WithPolicy(stm.MixedEagerWWLazyRW), stm.WithMaxAttempts(3))
	p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
	m := newOrderedMap(s, p, 16) // stripes of width 16 over 0..255
	if err := s.Atomically(func(tx *stm.Txn) error {
		for k := 0; k < 256; k += 32 {
			m.Put(tx, k, k)
		}
		return nil
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}

	// Park a writer holding a write intent on key 64 (stripe 4).
	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- s.Atomically(func(tx *stm.Txn) error {
			m.Put(tx, 64, 999)
			once.Do(func() { close(holding) })
			<-release
			return nil
		})
	}()
	<-holding

	// A range query overlapping stripe 4 conflicts.
	err := s.Atomically(func(tx *stm.Txn) error {
		m.RangeQuery(tx, 60, 70)
		return nil
	})
	if !errors.Is(err, stm.ErrMaxAttempts) {
		t.Fatalf("overlapping range err = %v, want ErrMaxAttempts", err)
	}
	// A disjoint range (stripes 8..9, keys 128..159) commutes.
	if err := s.Atomically(func(tx *stm.Txn) error {
		got := m.RangeQuery(tx, 128, 159)
		if len(got) != 1 || got[0].Key != 128 {
			t.Errorf("RangeQuery(128,159) = %v", got)
		}
		return nil
	}); err != nil {
		t.Fatalf("disjoint range err = %v (false conflict!)", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked writer: %v", err)
	}
}

// TestOrderedMapRangeAtomicity: writers move a constant total between the
// keys of one interval; a concurrent range query must always observe the
// full total.
func TestOrderedMapRangeAtomicity(t *testing.T) {
	for _, p := range opaquePoints(Eager) {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(p.policy))
			m := newOrderedMap(s, p, 16)
			const total = 1000
			if err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, 10, total/2)
				m.Put(tx, 20, total/2)
				return nil
			}); err != nil {
				t.Fatalf("setup: %v", err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				amt := 1
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Atomically(func(tx *stm.Txn) error {
						a, _ := m.Get(tx, 10)
						b, _ := m.Get(tx, 20)
						m.Put(tx, 10, a-amt)
						m.Put(tx, 20, b+amt)
						return nil
					}); err != nil {
						t.Errorf("mover: %v", err)
						return
					}
					amt = -amt
				}
			}()
			deadline := time.Now().Add(40 * time.Millisecond)
			for time.Now().Before(deadline) {
				if err := s.Atomically(func(tx *stm.Txn) error {
					sum := 0
					for _, e := range m.RangeQuery(tx, 0, 255) {
						sum += e.Val
					}
					if sum != total {
						t.Errorf("range query observed torn total %d", sum)
					}
					return nil
				}); err != nil {
					t.Fatalf("query: %v", err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestOrderedMapVsOracle drives random point and range operations against a
// sequential oracle.
func TestOrderedMapVsOracle(t *testing.T) {
	s := stm.New()
	p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
	m := newOrderedMap(s, p, 16)
	oracle := make(map[int]int)
	f := func(ops []uint16) bool {
		ok := true
		for i, op := range ops {
			k := int(op % 200)
			err := s.Atomically(func(tx *stm.Txn) error {
				switch op % 4 {
				case 0:
					m.Put(tx, k, i)
				case 1:
					m.Remove(tx, k)
				case 2:
					got, gotOK := m.Get(tx, k)
					want, wantOK := oracle[k]
					if gotOK != wantOK || (wantOK && got != want) {
						ok = false
					}
				case 3:
					lo, hi := k, k+int(op%31)
					got := m.RangeQuery(tx, lo, hi)
					want := 0
					for kk := lo; kk <= hi; kk++ {
						if _, present := oracle[kk]; present {
							want++
						}
					}
					if len(got) != want {
						ok = false
					}
					for j := 1; j < len(got); j++ {
						if got[j-1].Key >= got[j].Key {
							ok = false
						}
					}
				}
				return nil
			})
			if err != nil {
				return false
			}
			switch op % 4 {
			case 0:
				oracle[k] = i
			case 1:
				delete(oracle, k)
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedMapStripeRounding(t *testing.T) {
	s := stm.New()
	p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
	if got := newOrderedMap(s, p, 10).Stripes(); got != 16 {
		t.Fatalf("Stripes = %d, want 16 (rounded up)", got)
	}
	if got := newOrderedMap(s, p, 0).Stripes(); got != 1 {
		t.Fatalf("Stripes = %d, want 1 (minimum)", got)
	}
	// More stripes than index values collapses to the index size.
	lap := NewOptimisticLAP(s, func(st int) uint64 { return uint64(st) }, 8)
	m := NewOrderedMap[int, int](s, lap, intCmp, func(k int) uint64 { return uint64(k) }, 2, 100)
	if got := m.Stripes(); got != 4 {
		t.Fatalf("Stripes = %d, want 4 (clamped to 2^indexBits)", got)
	}
}
