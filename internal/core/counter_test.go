package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proust/internal/stm"
)

func TestNNCounterBasics(t *testing.T) {
	s := stm.New()
	c := NewNNCounter(s)
	if err := s.Atomically(func(tx *stm.Txn) error {
		c.Incr(tx)
		c.Incr(tx)
		if !c.Decr(tx) {
			t.Error("Decr above zero should succeed")
		}
		return nil
	}); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if got := c.Value(); got != 1 {
		t.Fatalf("Value = %d, want 1", got)
	}
}

func TestNNCounterUnderflowFlag(t *testing.T) {
	s := stm.New()
	c := NewNNCounter(s)
	var gotFlag bool
	if err := s.Atomically(func(tx *stm.Txn) error {
		gotFlag = c.Decr(tx)
		return nil
	}); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if gotFlag {
		t.Fatal("Decr on zero must report failure")
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("Value = %d, want 0", got)
	}
}

func TestNNCounterAbortRestores(t *testing.T) {
	errBoom := errors.New("boom")
	s := stm.New()
	c := NewNNCounter(s)
	if err := s.Atomically(func(tx *stm.Txn) error {
		c.Incr(tx)
		c.Incr(tx)
		c.Incr(tx)
		return nil
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	err := s.Atomically(func(tx *stm.Txn) error {
		c.Incr(tx)
		c.Decr(tx)
		c.Decr(tx)
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if got := c.Value(); got != 3 {
		t.Fatalf("Value after abort = %d, want 3", got)
	}
}

// TestNNCounterNeverNegative stresses concurrent increments and decrements:
// the counter must never go below zero, and conservation must hold:
// final = initial + commits(incr) - commits(successful decr).
func TestNNCounterNeverNegative(t *testing.T) {
	for _, p := range []stm.DetectionPolicy{stm.MixedEagerWWLazyRW, stm.EagerEager, stm.LazyLazy} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := stm.New(stm.WithPolicy(p))
			c := NewNNCounter(s)
			var (
				incrs     atomic.Int64
				goodDecrs atomic.Int64
			)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						if (g+i)%2 == 0 {
							if err := s.Atomically(func(tx *stm.Txn) error {
								c.Incr(tx)
								return nil
							}); err != nil {
								t.Errorf("incr: %v", err)
								return
							}
							incrs.Add(1)
						} else {
							var ok bool
							if err := s.Atomically(func(tx *stm.Txn) error {
								ok = c.Decr(tx)
								return nil
							}); err != nil {
								t.Errorf("decr: %v", err)
								return
							}
							if ok {
								goodDecrs.Add(1)
							}
						}
						if v := c.Value(); v < 0 {
							t.Errorf("counter went negative: %d", v)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			want := incrs.Load() - goodDecrs.Load()
			if got := c.Value(); got != want {
				t.Fatalf("Value = %d, want %d (%d incrs, %d successful decrs)",
					got, want, incrs.Load(), goodDecrs.Load())
			}
		})
	}
}

// readerDoomSignal dooms every visible reader, like stm.Backoff, and reports
// each reader arbitration on its channel.
type readerDoomSignal struct {
	stm.Backoff
	arbitrated chan struct{}
}

func (c readerDoomSignal) InvalidatesReader(_, _ *stm.Txn) bool {
	select {
	case c.arbitrated <- struct{}{}:
	default:
	}
	return true
}

// TestNNCounterDecrWaitsForDoomedIncr parks an eager-eager Incr between its
// base update and its commit, then runs a Decr that dooms it through l0. The
// Decr must not consume the parked increment: it may go on only once the
// doomed Incr's rollback has run its inverse. Otherwise the Decr commits
// while the Incr is parked, and the inverse then takes the counter below
// zero.
func TestNNCounterDecrWaitsForDoomedIncr(t *testing.T) {
	cm := readerDoomSignal{arbitrated: make(chan struct{}, 1)}
	s := stm.New(stm.WithPolicy(stm.EagerEager), stm.WithContentionManager(cm))
	c := NewNNCounter(s)
	parked, release := make(chan struct{}), make(chan struct{})
	var lowest atomic.Int64
	incrDone := make(chan error, 1)
	go func() {
		incrDone <- s.Atomically(func(tx *stm.Txn) error {
			if v := c.Value(); v < lowest.Load() {
				lowest.Store(v)
			}
			c.Incr(tx)
			if tx.Attempt() == 1 {
				close(parked)
				<-release
			}
			return nil
		})
	}()
	<-parked

	var decrOK bool
	decrDone := make(chan error, 1)
	go func() {
		decrDone <- s.Atomically(func(tx *stm.Txn) error {
			decrOK = c.Decr(tx)
			return nil
		})
	}()
	<-cm.arbitrated
	// Well inside the writer's bound on waiting for a doomed reader.
	select {
	case err := <-decrDone:
		close(release)
		<-incrDone
		t.Fatalf("Decr committed (err %v, ok %v) while the Incr it doomed was parked before its rollback", err, decrOK)
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	if err := <-incrDone; err != nil {
		t.Fatal(err)
	}
	if err := <-decrDone; err != nil {
		t.Fatal(err)
	}
	if v := lowest.Load(); v < 0 {
		t.Fatalf("counter read %d at the start of a retried Incr", v)
	}
	want := int64(1)
	if decrOK {
		want = 0
	}
	if got := c.Value(); got != want {
		t.Fatalf("Value = %d, want %d (Decr ok = %v)", got, want, decrOK)
	}
}

// TestNNCounterNoConflictsFarFromZero: with the counter held well above the
// threshold, concurrent increments and decrements touch no STM locations at
// all and must commit without a single abort — "the STM detects no
// conflict, reflecting the absence of an abstract-level conflict".
func TestNNCounterNoConflictsFarFromZero(t *testing.T) {
	s := stm.New(stm.WithPolicy(stm.MixedEagerWWLazyRW))
	c := NewNNCounter(s)
	if err := s.Atomically(func(tx *stm.Txn) error {
		for i := 0; i < 100; i++ {
			c.Incr(tx)
		}
		return nil
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	s.ResetStats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				op := c.Incr
				if i%2 == 1 {
					op = func(tx *stm.Txn) { c.Decr(tx) }
				}
				if err := s.Atomically(func(tx *stm.Txn) error {
					op(tx)
					return nil
				}); err != nil {
					t.Errorf("op: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Aborts != 0 {
		t.Fatalf("Aborts = %d, want 0 (no abstract conflicts far from zero)", st.Aborts)
	}
	if got := c.Value(); got != 100 {
		t.Fatalf("Value = %d, want 100", got)
	}
}
