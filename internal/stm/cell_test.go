package stm

import (
	"errors"
	"testing"
)

// The cell invariant (ref.go): a written value's cell is mutable only while
// it sits in its writer's redo log. A repeat Set stores into it in place;
// the shared serial-token box, a committed cell and a withdrawn tentative
// cell are never written again.

// TestRepeatWriteLeavesTokenBoxAlone: the serial token is one box published
// into every conflict-abstraction location of every attempt. A later Set of one
// of those refs must replace the token there with a cell of its own, never
// store into the token box, which the other ref still holds.
func TestRepeatWriteLeavesTokenBoxAlone(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		a, b := NewRef[uint64](s, 5), NewRef[uint64](s, 6)
		var tok *box
		if err := s.Atomically(func(tx *Txn) error {
			SetSerialToken(tx, a)
			SetSerialToken(tx, b)
			tok = serialToken
			a.Set(tx, 42)
			if got := a.Get(tx); got != 42 {
				t.Errorf("a.Get after Set = %d, want 42", got)
			}
			if got := b.Get(tx); got != 0 {
				t.Errorf("b.Get of the token = %d, want 0", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if tok.v != any(tok) {
			t.Fatalf("the token box was rewritten: v = %v", tok.v)
		}
		if got := b.b.value.Load(); got != tok {
			t.Fatal("b no longer holds the token box")
		}
		if a.b.value.Load() == tok {
			t.Fatal("a still holds the token box after a Set")
		}
		if got := a.Load(); got != 42 {
			t.Fatalf("a.Load = %d, want 42", got)
		}
		if got := b.Load(); got != 0 {
			t.Fatalf("b.Load of the token = %d, want 0", got)
		}
		if err := s.Atomically(func(tx *Txn) error {
			if got := a.Get(tx); got != 42 {
				t.Errorf("a.Get = %d, want 42", got)
			}
			if got := b.Get(tx); got != 0 {
				t.Errorf("b.Get of the token = %d, want 0", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSerialTokenWriteInvalidatesReader: a committed write of the shared
// token over the token must still invalidate a transaction that read the
// location before it — the box is the same, only the version the commit
// stamped tells the two apart. It is the token analogue of
// TestNOrecTouchSupportsTheorem53: a backend that validated by box identity
// would let T1 commit on its first attempt.
func TestSerialTokenWriteInvalidatesReader(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		loc, other := NewRef[uint64](s, 0), NewRef[uint64](s, 0)
		if err := s.Atomically(func(tx *Txn) error {
			SetSerialToken(tx, loc)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		if err := s.Atomically(func(tx *Txn) error {
			attempts++
			_ = loc.Get(tx)
			if attempts == 1 {
				done := make(chan error)
				go func() {
					done <- s.Atomically(func(tx2 *Txn) error {
						SetSerialToken(tx2, loc)
						return nil
					})
				}()
				if err := <-done; err != nil {
					t.Error(err)
				}
			}
			other.Set(tx, 1)
			loc.Touch(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if attempts < 2 {
			t.Fatalf("attempts = %d, want >= 2 (a committed token write must invalidate the read)", attempts)
		}
		if loc.b.value.Load() != serialToken {
			t.Fatal("loc no longer holds the token")
		}
	})
}

// TestRepeatWriteAbortRestoresCommitted: an encounter-time backend installs
// the first write's cell as the tentative box and the second write stores
// into it; the abort must put back the committed box, whose value the
// in-place store never reached.
func TestRepeatWriteAbortRestoresCommitted(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		r := NewRef(s, 7)
		committed := r.b.value.Load()
		abort := errors.New("abort")
		err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, 1)
			r.Set(tx, 2)
			if got := r.Get(tx); got != 2 {
				t.Errorf("Get after two writes = %d, want 2", got)
			}
			return abort
		})
		if err != abort {
			t.Fatalf("Atomically = %v, want the body's error", err)
		}
		if r.b.value.Load() != committed {
			t.Fatal("the abort did not restore the committed box")
		}
		if got := cellValue[int](committed.v); got != 7 {
			t.Fatalf("the committed cell holds %d, want 7", got)
		}
		if got := r.Load(); got != 7 {
			t.Fatalf("Load = %d, want 7", got)
		}
		if err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, r.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := r.Load(); got != 8 {
			t.Fatalf("Load after the next commit = %d, want 8", got)
		}
	})
}

// TestPublishedCellNeverRewritten: once a cell is published it belongs to
// every reader that loaded it — under mvcc also to the snapshots that reach
// it through the history chain. Later transactions on the same (pooled)
// descriptor that write the ref twice must make cells of their own.
func TestPublishedCellNeverRewritten(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		r := NewRef(s, 0)
		set := func(vs ...int) {
			t.Helper()
			if err := s.Atomically(func(tx *Txn) error {
				for _, v := range vs {
					r.Set(tx, v)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		set(1)
		c1 := r.b.value.Load()

		// Under mvcc, park a snapshot reader that has read the cell holding 1.
		mvcc := s.Policy() == MultiVersion
		read, resume, done := make(chan struct{}), make(chan struct{}), make(chan int, 1)
		if mvcc {
			go func() {
				again := -1
				_ = s.AtomicallyCtx(WithReadOnly(nil), func(tx *Txn) error {
					if got := r.Get(tx); got != 1 {
						t.Errorf("snapshot first read = %d, want 1", got)
					}
					close(read)
					<-resume
					again = r.Get(tx)
					return nil
				})
				done <- again
			}()
			<-read
		}

		set(2)
		c2 := r.b.value.Load()
		set(3, 4)
		if got := r.Load(); got != 4 {
			t.Fatalf("Load = %d, want 4", got)
		}
		if c1 == c2 || r.b.value.Load() == c2 {
			t.Fatal("a commit republished an earlier cell")
		}
		if got := cellValue[int](c1.v); got != 1 {
			t.Fatalf("the cell published holding 1 now holds %d", got)
		}
		if got := cellValue[int](c2.v); got != 2 {
			t.Fatalf("the cell published holding 2 now holds %d", got)
		}
		if mvcc {
			close(resume)
			if again := <-done; again != 1 {
				t.Fatalf("snapshot re-read = %d, want its original 1", again)
			}
		}
	})
}
