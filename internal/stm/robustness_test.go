package stm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryNotAbandonedByUnrelatedCommits is the regression test for the
// spurious-ErrMaxAttempts bug: a consumer legitimately blocked on Retry is
// woken by every commit (notifyCommit broadcasts unconditionally), and those
// wake-ups used to advance the maxTries counter. The consumer here survives
// far more than 10x maxTries unrelated commits and still completes once the
// producer finally publishes.
func TestRetryNotAbandonedByUnrelatedCommits(t *testing.T) {
	const maxTries = 3
	const unrelatedCommits = 20 * maxTries

	forEachBackend(t, func(t *testing.T, s *STM) {
		s.maxTries = maxTries
		flag := NewRef(s, 0)
		noise := NewRef(s, 0)

		wakeups := make(chan struct{}, unrelatedCommits+1)
		done := make(chan error, 1)
		go func() {
			done <- s.Atomically(func(tx *Txn) error {
				if flag.Get(tx) == 0 {
					select {
					case wakeups <- struct{}{}:
					default:
					}
					Retry(tx)
				}
				return nil
			})
		}()

		// Wait until the consumer has executed its body at least once, then
		// hammer it with unrelated commits: each one wakes it, it re-reads
		// flag == 0 and blocks again.
		<-wakeups
		for i := 0; i < unrelatedCommits; i++ {
			if err := s.Atomically(func(tx *Txn) error {
				noise.Set(tx, i)
				return nil
			}); err != nil {
				t.Fatalf("unrelated commit %d: %v", i, err)
			}
		}

		select {
		case err := <-done:
			t.Fatalf("consumer finished while flag unset: %v (want still blocked; ErrMaxAttempts means the bug is back)", err)
		case <-time.After(10 * time.Millisecond):
		}

		if err := s.Atomically(func(tx *Txn) error {
			flag.Set(tx, 1)
			return nil
		}); err != nil {
			t.Fatalf("publish: %v", err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("consumer: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("consumer never woke after publish")
		}
		if got := s.Stats().MaxAttemptsAborts; got != 0 {
			t.Fatalf("MaxAttemptsAborts = %d, want 0", got)
		}
	})
}

// TestRetryDoesNotMissCommitBeforeSleep is the lost-wake-up regression: a
// commit that lands after the consumer's body read the old value but before
// the attempt loop goes to sleep must still wake it. The window is hit
// deterministically — the consumer's first attempt registers an OnAbort hook
// that runs the one and only producer transaction, so the commit completes
// during the rollback of the very execution that decided to Retry. A loop
// that samples the retry generation only after the rollback waits for a
// commit that already happened, forever.
func TestRetryDoesNotMissCommitBeforeSleep(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		flag := NewRef(s, 0)
		bodies := 0
		done := make(chan error, 1)
		go func() {
			done <- s.Atomically(func(tx *Txn) error {
				bodies++
				if bodies == 1 {
					tx.OnAbort(func() {
						if err := s.Atomically(func(tx *Txn) error { flag.Set(tx, 1); return nil }); err != nil {
							t.Errorf("producer: %v", err)
						}
					})
				}
				if flag.Get(tx) == 0 {
					Retry(tx)
				}
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("consumer: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("consumer slept through the only commit that satisfies it")
		}
	})
}

// TestMaxAttemptsStillBoundsConflicts: the bugfix must not weaken the bound
// it was protecting — a transaction that aborts on real conflicts every time
// is still abandoned after exactly maxTries failures.
func TestMaxAttemptsStillBoundsConflicts(t *testing.T) {
	s := New(WithMaxAttempts(2))
	r := NewRef(s, 0)
	bodies := 0
	err := s.Atomically(func(tx *Txn) error {
		bodies++
		_ = r.Get(tx)
		tx.conflict(CauseLockConflict) // unconditional conflict
		return nil
	})
	if !errors.Is(err, ErrMaxAttempts) {
		t.Fatalf("err = %v, want ErrMaxAttempts", err)
	}
	if bodies != 2 {
		t.Fatalf("body ran %d times, want 2", bodies)
	}
}

// waitGoroutinesBelow polls until the goroutine count drops to at most n
// (goleak-style in-tree accounting; the runtime needs a moment to unwind
// exiting goroutines).
func waitGoroutinesBelow(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d still running, want <= %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseWakesRetryWaiters is the regression test for the lost-shutdown
// hang: Close must wake every blocked Retry waiter, their transactions must
// fail with ErrClosed, and no goroutine may stay parked in waitCommit.
func TestCloseWakesRetryWaiters(t *testing.T) {
	const waiters = 8
	base := runtime.NumGoroutine()

	s := New()
	flag := NewRef(s, 0)
	errs := make(chan error, waiters)
	var entered sync.WaitGroup
	entered.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			first := true
			errs <- s.Atomically(func(tx *Txn) error {
				if first {
					first = false
					entered.Done()
				}
				if flag.Get(tx) == 0 {
					Retry(tx)
				}
				return nil
			})
		}()
	}
	entered.Wait()
	time.Sleep(5 * time.Millisecond) // let the waiters park in waitCommit

	s.Close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter %d: err = %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still blocked after Close", i)
		}
	}
	waitGoroutinesBelow(t, base)

	// The instance stays closed: new transactions fail immediately.
	if err := s.Atomically(func(tx *Txn) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close txn: err = %v, want ErrClosed", err)
	}
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if got := s.Stats().ClosedTxns; got < waiters {
		t.Fatalf("ClosedTxns = %d, want >= %d", got, waiters)
	}
	s.Close() // idempotent
}

// TestAtomicallyCtxCancelUnblocksRetry: cancellation must wake a transaction
// parked in waitCommit and surface as ErrCanceled, leaving no goroutines.
func TestAtomicallyCtxCancelUnblocksRetry(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	flag := NewRef(s, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	entered := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.AtomicallyCtx(ctx, func(tx *Txn) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			if flag.Get(tx) == 0 {
				Retry(tx)
			}
			return nil
		})
	}()
	<-entered
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the Retry waiter")
	}
	waitGoroutinesBelow(t, base)
	if got := s.Stats().CanceledTxns; got != 1 {
		t.Fatalf("CanceledTxns = %d, want 1", got)
	}
}

// TestAtomicallyCtxDeadline: an expired deadline surfaces as ErrDeadline,
// both on a blocked Retry and on entry with an already-dead context.
func TestAtomicallyCtxDeadline(t *testing.T) {
	s := New()
	flag := NewRef(s, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := s.AtomicallyCtx(ctx, func(tx *Txn) error {
		if flag.Get(tx) == 0 {
			Retry(tx)
		}
		return nil
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("blocked Retry: err = %v, want ErrDeadline", err)
	}

	dead, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	ran := false
	err = s.AtomicallyCtx(dead, func(tx *Txn) error { ran = true; return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("dead ctx: err = %v, want ErrDeadline", err)
	}
	if ran {
		t.Fatal("body ran under an already-expired context")
	}
	if got := s.Stats().DeadlineTxns; got != 2 {
		t.Fatalf("DeadlineTxns = %d, want 2", got)
	}
}

// TestAtomicallyCtxNilIsAtomically: the nil-ctx spelling commits normally
// and AtomicallyCtxResult round-trips values.
func TestAtomicallyCtxNilIsAtomically(t *testing.T) {
	s := New()
	r := NewRef(s, 41)
	v, err := AtomicallyCtxResult(context.Background(), s, func(tx *Txn) (int, error) {
		r.Set(tx, r.Get(tx)+1)
		return r.Get(tx), nil
	})
	if err != nil || v != 42 {
		t.Fatalf("got (%d, %v), want (42, nil)", v, err)
	}
	if err := s.AtomicallyCtx(nil, func(tx *Txn) error { return nil }); err != nil { //nolint:staticcheck // nil ctx is the documented fast path
		t.Fatalf("nil ctx: %v", err)
	}
}

// hostileCM answers true to every arbitration question, including the
// reflexive ones its contract never poses. The Wins/InvalidatesReader
// contract does not constrain attacker == victim, so the cmWins guards must
// keep such a manager from letting a transaction doom itself on re-entrant
// acquisition.
type hostileCM struct{}

func (hostileCM) Wins(_, _ *Txn) bool              { return true }
func (hostileCM) InvalidatesReader(_, _ *Txn) bool { return true }
func (hostileCM) Name() string                     { return "hostile" }

// TestNoSelfDoomOnReentrantAcquire is the audit regression for satellite 3:
// re-entrant acquisition (write, read-back, write again of the same ref —
// the abstract-lock acquisition pattern) must never self-doom, even under a
// contention manager that claims every transaction beats every other.
func TestNoSelfDoomOnReentrantAcquire(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		s.cm = hostileCM{}
		r := NewRef(s, 0)
		other := NewRef(s, 0)
		err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, 1)        // acquire (encounter-time backends lock here)
			if r.Get(tx) != 1 { // read-back through the redo log / own lock
				t.Error("read-back missed own write")
			}
			r.Set(tx, 2) // re-entrant re-acquisition
			r.Touch(tx)  // trailing read (Theorem 5.3 pattern) of an owned ref
			other.Set(tx, r.Get(tx))
			return nil
		})
		if err != nil {
			t.Fatalf("re-entrant txn: %v", err)
		}
		if got := r.Load(); got != 2 {
			t.Fatalf("r = %d, want 2", got)
		}
		if got := s.Stats().DoomedAborts; got != 0 {
			t.Fatalf("DoomedAborts = %d, want 0 (self-doom)", got)
		}
	})
}

// TestEscalationBoundsRetries: with the chaos wrapper dooming every
// transaction (DoomEvery = 1) no optimistic commit can succeed, so only
// escalation terminates. Every transaction must commit within K+1 attempts:
// K doomed optimistic attempts, then one serial attempt that the wrapper
// exempts and the token protects.
func TestEscalationBoundsRetries(t *testing.T) {
	const k = 3
	const goroutines = 4
	const txnsPerG = 25

	s := New(
		WithEscalation(k),
		WithChaos(ChaosConfig{Seed: 42, DoomEvery: 1}),
	)
	r := NewRef(s, 0)
	var maxAttempts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txnsPerG; i++ {
				err := s.Atomically(func(tx *Txn) error {
					r.Set(tx, r.Get(tx)+1)
					a := int64(tx.Attempt())
					for {
						cur := maxAttempts.Load()
						if a <= cur || maxAttempts.CompareAndSwap(cur, a) {
							break
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("txn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Load(); got != goroutines*txnsPerG {
		t.Fatalf("counter = %d, want %d", got, goroutines*txnsPerG)
	}
	if got := maxAttempts.Load(); got > k+1 {
		t.Fatalf("a transaction needed %d attempts; escalation must bound it at %d", got, k+1)
	}
	st := s.Stats()
	if st.Escalations != goroutines*txnsPerG {
		t.Fatalf("Escalations = %d, want %d (every txn is doomed until serial)", st.Escalations, goroutines*txnsPerG)
	}
	if st.SerialCommits != goroutines*txnsPerG {
		t.Fatalf("SerialCommits = %d, want %d", st.SerialCommits, goroutines*txnsPerG)
	}
	if st.ChaosAborts == 0 {
		t.Fatal("ChaosAborts = 0, want > 0")
	}
}

// TestEscalationRetryReleasesToken: a serial transaction that hits Retry
// must drop the exclusive token (its wake-up needs another transaction to
// commit) and still complete afterwards.
func TestEscalationRetryReleasesToken(t *testing.T) {
	s := New(WithEscalation(1), WithChaos(ChaosConfig{Seed: 7, DoomEvery: 1}))
	flag := NewRef(s, 0)

	done := make(chan error, 1)
	entered := make(chan struct{}, 1)
	go func() {
		done <- s.Atomically(func(tx *Txn) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			if flag.Get(tx) == 0 {
				Retry(tx) // by now the txn has escalated (every commit doomed)
			}
			return nil
		})
	}()
	<-entered
	time.Sleep(5 * time.Millisecond)
	// If the waiter still held the exclusive token, this producer could
	// never pin shared and the test would time out.
	if err := s.Atomically(func(tx *Txn) error {
		flag.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatalf("producer: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("escalated Retry waiter never completed")
	}
}

// TestChaosBackendRegistry: WithChaos composes the fault-injection wrapper
// over every registered backend, the wrapped instance reports itself as
// "chaos-<inner>", and it commits correct results despite injected faults.
func TestChaosBackendRegistry(t *testing.T) {
	for _, inner := range BackendNames() {
		name := "chaos-" + inner
		t.Run(name, func(t *testing.T) {
			s := New(WithBackend(inner), WithChaos(DefaultChaosConfig()), WithEscalation(8))
			if got := s.Backend().Name(); got != name {
				t.Fatalf("Backend().Name() = %q, want %q", got, name)
			}
			r := NewRef(s, 0)
			for i := 0; i < 300; i++ {
				if err := s.Atomically(func(tx *Txn) error {
					r.Set(tx, r.Get(tx)+1)
					return nil
				}); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			if got := r.Load(); got != 300 {
				t.Fatalf("counter = %d, want 300", got)
			}
		})
	}
}

// TestChaosSoak is the seeded chaos soak: every fault class enabled at high
// rates, concurrent transactions on shared refs, run under -race in CI. It
// asserts (a) linearizable results despite injection, (b) escalation bounds
// every transaction's attempts at K+1, and (c) the abort-cause accounting
// stays consistent.
func TestChaosSoak(t *testing.T) {
	const (
		k          = 5
		goroutines = 8
		txnsPerG   = 150
		refsN      = 4
	)
	s := New(
		WithBackend("ccstm"),
		WithEscalation(k),
		WithChaos(ChaosConfig{
			Seed:        0xC0FFEE,
			AbortEvery:  8,
			DelayEvery:  16,
			CommitDelay: 50 * time.Microsecond,
			DoomEvery:   4,
		}),
	)
	refs := make([]*Ref[int], refsN)
	for i := range refs {
		refs[i] = NewRef(s, 0)
	}
	var maxAttempts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < txnsPerG; i++ {
				err := s.Atomically(func(tx *Txn) error {
					r := refs[(id+i)%refsN]
					r.Set(tx, r.Get(tx)+1)
					a := int64(tx.Attempt())
					for {
						cur := maxAttempts.Load()
						if a <= cur || maxAttempts.CompareAndSwap(cur, a) {
							break
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("txn: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, r := range refs {
		total += r.Load()
	}
	if total != goroutines*txnsPerG {
		t.Fatalf("sum = %d, want %d (lost or duplicated increments under chaos)", total, goroutines*txnsPerG)
	}
	if got := maxAttempts.Load(); got > k+1 {
		t.Fatalf("max attempts = %d, want <= %d (escalation bound)", got, k+1)
	}
	st := s.Stats()
	if st.ChaosAborts == 0 {
		t.Fatal("soak injected no faults; chaos config inert")
	}
	if st.Commits != goroutines*txnsPerG {
		t.Fatalf("Commits = %d, want %d", st.Commits, goroutines*txnsPerG)
	}
	sum := st.ConflictAborts + st.ValidationAborts + st.DoomedAborts + st.UserAborts + st.ChaosAborts
	if st.Aborts != sum {
		t.Fatalf("Aborts = %d but causes sum to %d", st.Aborts, sum)
	}
}

// TestChaosDeterminism: the fault schedule is a pure function of the seed
// and transaction serials, so two sequential runs with equal seeds inject
// identical fault counts.
func TestChaosDeterminism(t *testing.T) {
	run := func() StatsSnapshot {
		s := New(WithEscalation(4), WithChaos(ChaosConfig{Seed: 99, AbortEvery: 4, DoomEvery: 8}))
		r := NewRef(s, 0)
		for i := 0; i < 400; i++ {
			if err := s.Atomically(func(tx *Txn) error {
				r.Set(tx, r.Get(tx)+1)
				return nil
			}); err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a.ChaosAborts != b.ChaosAborts || a.Escalations != b.Escalations {
		t.Fatalf("seeded runs diverged: chaos %d vs %d, escalations %d vs %d",
			a.ChaosAborts, b.ChaosAborts, a.Escalations, b.Escalations)
	}
	if a.ChaosAborts == 0 {
		t.Fatal("seeded run injected nothing")
	}
}
