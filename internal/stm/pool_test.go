package stm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolBackends is the pool-poisoning test matrix: every registered backend,
// the chaos fault-injection wrappers included.
var poolBackends = BackendNames()

// forEachLog calls f on every pooled log of the descriptor: every slice field
// of Txn and of the structs embedded in it by value (writeSet), found by
// reflection, so a log added later is covered without touching the tests.
// rvVec is the one slice that is not a log: it keeps its length, and
// assertFresh checks its contents.
func forEachLog(tx *Txn, f func(path string, log reflect.Value)) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if name := v.Type().Field(i).Name; name != "rvVec" {
					walk(path+"."+name, v.Field(i))
				}
			}
		case reflect.Slice:
			f(path, v)
		}
	}
	walk("tx", reflect.ValueOf(tx).Elem())
}

// assertLogsZero is the structural check of the pooling invariant (see
// truncate): every log of a descriptor that is parked in the pool, or was
// just drawn from it, is empty AND all-zero through its capacity, so it pins
// no box, ref, value or closure and owes no clearing to its next user.
func assertLogsZero(t *testing.T, tx *Txn) {
	t.Helper()
	forEachLog(tx, func(path string, log reflect.Value) {
		if log.Len() != 0 {
			t.Errorf("%s: %d leftover entries", path, log.Len())
		}
		for i, spare := 0, log.Slice(0, log.Cap()); i < spare.Len(); i++ {
			if !spare.Index(i).IsZero() {
				t.Errorf("%s: spare capacity not zero at [%d] of cap %d", path, i, log.Cap())
				return
			}
		}
	})
}

// assertFresh runs one transaction against s and fails the test if the
// descriptor it receives is distinguishable from a freshly allocated one:
// leftover logs or callbacks from a previous (poisoned) transaction, a stale
// serial bit, a stale attempt count, or TxnLocal state bleeding through.
func assertFresh(t *testing.T, s *STM, poisonLocal *TxnLocal[int], refs []*Ref[int], want []int) {
	t.Helper()
	first := true
	err := s.Atomically(func(tx *Txn) error {
		if !first {
			return nil // a chaos wrapper may force retries; only attempt 1 is inspected
		}
		first = false
		if got := tx.Attempt(); got != 1 {
			t.Errorf("fresh txn Attempt() = %d, want 1", got)
		}
		if tx.Serialized() {
			t.Error("fresh txn reports Serialized()")
		}
		assertLogsZero(t, tx) // no leftover log entries or callbacks, no dirty spare capacity
		if poisonLocal != nil {
			if v, ok := poisonLocal.Peek(tx); ok {
				t.Errorf("fresh txn sees poisoned TxnLocal value %d", v)
			}
		}
		if st := tx.state.Load(); st&stateSerial != 0 {
			t.Errorf("fresh txn state word has serial bit: %#x", st)
		}
		if tx.shardSeen != 0 || tx.epochSeen != 0 {
			t.Errorf("fresh txn has captured shard state: seen=%#x epoch=%d", tx.shardSeen, tx.epochSeen)
		}
		if len(tx.rvVec) != s.nShards {
			t.Errorf("fresh txn rvVec sized %d, want %d", len(tx.rvVec), s.nShards)
		}
		// The vector must be untouched until the body's first read.
		for i, v := range tx.rvVec {
			if v != 0 {
				t.Errorf("fresh txn rvVec[%d] = %d before first read", i, v)
				break
			}
		}
		for i, r := range refs {
			if got := r.Get(tx); got != want[i] {
				t.Errorf("ref %d = %d, want %d", i, got, want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("freshness probe failed: %v", err)
	}
}

// poisonScenario mutates as much descriptor state as a transaction can and
// then dies in the given way; the subsequent assertFresh must see none of it.
// poison returns the descriptor it dirtied once that descriptor is back in the
// pool (nil when the exit does not recycle it), for assertLogsZero.
type poisonScenario struct {
	name   string
	opts   []Option // extra options for the instance
	poison func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) *Txn
}

// dirtyBody loads the descriptor with every kind of state: reads, redo-log
// writes (enough to build the probe table), TxnLocals and all three callback
// hooks.
func dirtyBody(tx *Txn, local *TxnLocal[int], refs []*Ref[int]) {
	for _, r := range refs {
		_ = r.Get(tx)
	}
	for i, r := range refs {
		r.Set(tx, -1000-i)
	}
	local.Set(tx, 666)
	tx.OnAbort(func() {})
	tx.OnCommit(func() {})
	tx.OnCommitLocked(func() {})
}

func poolPoisonScenarios() []poisonScenario {
	return []poisonScenario{
		{
			name: "conflict-abort",
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				attempts := 0
				err := s.Atomically(func(tx *Txn) error {
					attempts++
					if attempts == 1 {
						dirtied = tx
						dirtyBody(tx, local, refs)
						AbortAndRetry(tx)
					}
					return nil // commit clean on the second attempt
				})
				if err != nil {
					t.Fatalf("conflict scenario: %v", err)
				}
				return dirtied
			},
		},
		{
			name: "user-error",
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				wantErr := errors.New("poison")
				err := s.Atomically(func(tx *Txn) error {
					dirtied = tx
					dirtyBody(tx, local, refs)
					return wantErr
				})
				if !errors.Is(err, wantErr) {
					t.Fatalf("user-error scenario returned %v", err)
				}
				return dirtied
			},
		},
		{
			name: "user-panic",
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				defer func() {
					if recover() == nil {
						t.Fatal("user panic did not propagate")
					}
				}()
				// The descriptor of a panicking body is never recycled.
				_ = s.Atomically(func(tx *Txn) error {
					dirtyBody(tx, local, refs)
					panic("poison")
				})
				return nil
			},
		},
		{
			name: "retry-park",
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				flag := NewRef(s, 0)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					time.Sleep(2 * time.Millisecond)
					if err := s.Atomically(func(tx *Txn) error { flag.Set(tx, 1); return nil }); err != nil {
						t.Errorf("waker: %v", err)
					}
				}()
				err := s.Atomically(func(tx *Txn) error {
					dirtied = tx
					dirtyBody(tx, local, refs)
					if flag.Get(tx) == 0 {
						Retry(tx)
					}
					// Woken attempt commits: undo the poison writes so the
					// freshness probe can check the committed values.
					for i, r := range refs {
						r.Set(tx, i)
					}
					return nil
				})
				wg.Wait()
				if err != nil {
					t.Fatalf("retry scenario: %v", err)
				}
				return dirtied
			},
		},
		{
			name: "ctx-cancel",
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(2 * time.Millisecond)
					cancel()
				}()
				err := s.AtomicallyCtx(ctx, func(tx *Txn) error {
					dirtied = tx
					dirtyBody(tx, local, refs)
					Retry(tx) // park until the cancellation wakes us
					return nil
				})
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("ctx-cancel scenario returned %v", err)
				}
				return dirtied
			},
		},
		{
			name: "max-attempts",
			opts: []Option{WithMaxAttempts(3)},
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				err := s.Atomically(func(tx *Txn) error {
					dirtied = tx
					dirtyBody(tx, local, refs)
					AbortAndRetry(tx)
					return nil
				})
				if !errors.Is(err, ErrMaxAttempts) {
					t.Fatalf("max-attempts scenario returned %v", err)
				}
				return dirtied
			},
		},
		{
			name: "escalated-serial",
			opts: []Option{WithEscalation(2)},
			poison: func(t *testing.T, s *STM, local *TxnLocal[int], refs []*Ref[int]) (dirtied *Txn) {
				attempts := 0
				err := s.Atomically(func(tx *Txn) error {
					attempts++
					dirtied = tx
					dirtyBody(tx, local, refs)
					if !tx.Serialized() {
						AbortAndRetry(tx) // conflict until escalation kicks in
					}
					// Serial attempt: roll the poison writes back to the
					// committed values so the freshness probe can check them.
					for i, r := range refs {
						r.Set(tx, i)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("escalation scenario: %v", err)
				}
				if attempts < 3 {
					t.Fatalf("escalation scenario committed after %d attempts, expected a serial retry streak", attempts)
				}
				return dirtied
			},
		},
	}
}

// TestPoolPoisoning is the pool-poisoning regression suite of the descriptor
// pool: a transaction that dies mid-body in every supported way — conflict,
// user error, user panic, Retry park, ctx cancellation, WithMaxAttempts
// abandonment, chaos-injected faults, escalated-serial commit — must hand
// back a descriptor whose reuse is indistinguishable from a fresh
// allocation, across all four backends and their chaos wrappers.
func TestPoolPoisoning(t *testing.T) {
	for _, bf := range Backends() {
		// 12 refs: enough writes to build the probe table. The real backends
		// additionally run every scenario at 1100 refs, so each exit also
		// recycles logs that grew to (and past) a thousand entries; a chaos
		// wrapper aborts roughly every 64th read and could never finish one.
		sizes := []int{12, 1100}
		if bf.Fault {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			for _, sc := range poolPoisonScenarios() {
				t.Run(fmt.Sprintf("%s/%s/%d", bf.Name, sc.name, n), func(t *testing.T) {
					opts := append([]Option{WithBackend(bf.Name)}, sc.opts...)
					s := New(opts...)
					local := NewTxnLocal(func(tx *Txn) int { return 0 })
					refs := make([]*Ref[int], n)
					want := make([]int, len(refs))
					for i := range refs {
						refs[i] = NewRef(s, i)
						want[i] = i
					}
					for round := 0; round < 8; round++ {
						if tx := sc.poison(t, s, local, refs); tx != nil {
							assertLogsZero(t, tx)
						}
						assertFresh(t, s, local, refs, want)
						if t.Failed() {
							t.Fatalf("descriptor poisoned after round %d", round)
						}
					}
				})
			}
		}
	}
}

// TestPoolLongAttemptThenShort pins the truncate invariant where a release
// that only walks the final attempt's lengths would break it: the
// transaction's FIRST attempt fills every log — a thousand reads, enough writes to build the
// probe table, several hooks of each kind — and aborts; its final attempt
// logs two reads and one write. The entries the first attempt appended lie
// beyond anything the final attempt's lengths cover, so they must have been
// zeroed when that attempt died, not when the descriptor was released.
func TestPoolLongAttemptThenShort(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		refs := make([]*Ref[int], 1100)
		for i := range refs {
			refs[i] = NewRef(s, i)
		}
		for round := 0; round < 3; round++ {
			var desc *Txn
			attempts := 0
			err := s.Atomically(func(tx *Txn) error {
				desc = tx
				if attempts++; attempts == 1 {
					for _, r := range refs {
						_ = r.Get(tx)
					}
					for i, r := range refs[:80] {
						r.Set(tx, -i)
					}
					for i := 0; i < 5; i++ {
						tx.OnAbort(func() {})
						tx.OnCommit(func() {})
						tx.OnCommitLocked(func() {})
					}
					AbortAndRetry(tx)
				}
				refs[1].Set(tx, refs[0].Get(tx)+refs[1].Get(tx))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := cap(desc.reads) + cap(desc.visible); got < len(refs) {
				t.Fatalf("descriptor did not keep its warm read log (cap %d)", got)
			}
			assertLogsZero(t, desc)
		}
	})
}

// TestPoolShedsOversizedLogs pins the retention bound: a transaction that
// grows any log past maxRetainedCap hands back a descriptor that keeps none
// of its arrays, so one gigantic transaction cannot pin its logs in the pool.
func TestPoolShedsOversizedLogs(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		refs := make([]*Ref[int], maxRetainedCap+1)
		for i := range refs {
			refs[i] = NewRef(s, i)
		}
		var desc *Txn
		if err := s.Atomically(func(tx *Txn) error {
			desc = tx
			for _, r := range refs {
				r.Set(tx, r.Get(tx)+1)
			}
			tx.OnCommit(func() {})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		forEachLog(desc, func(path string, log reflect.Value) {
			if log.Cap() != 0 {
				t.Errorf("%s retained with cap %d after an oversized transaction", path, log.Cap())
			}
		})
	})
}

// TestPoolReusesDescriptors pins the pool actually recycling: sequential
// transactions on one goroutine must observe the same descriptor again (the
// whole point of the pool — if this fails, the alloc gate is meaningless).
func TestPoolReusesDescriptors(t *testing.T) {
	s := New()
	r := NewRef(s, 0)
	var seen *Txn
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			if tx == seen {
				reused = true
			}
			seen = tx
			r.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reused {
		t.Fatal("100 sequential transactions never reused a descriptor")
	}
}

// TestPoolConcurrentChurn hammers the pool from many goroutines with mixed
// outcomes (commits, conflicts, user errors, Retry wake-ups) across all
// backends under the Timestamp manager, so descriptors are recycled while
// contention managers may still hold stale pointers to them. Run with -race:
// this is the regression for the atomic birth/state publication rules.
func TestPoolConcurrentChurn(t *testing.T) {
	for _, backend := range poolBackends {
		t.Run(backend, func(t *testing.T) {
			s := New(WithBackend(backend), WithContentionManager(Timestamp{}))
			const nRefs = 8
			refs := make([]*Ref[int], nRefs)
			for i := range refs {
				refs[i] = NewRef(s, 0)
			}
			txns := 400
			if testing.Short() {
				txns = 100
			}
			var wg sync.WaitGroup
			var userErrs atomic.Uint64
			errBoom := errors.New("boom")
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < txns; i++ {
						err := s.Atomically(func(tx *Txn) error {
							a := refs[(g+i)%nRefs]
							b := refs[(g+i+3)%nRefs]
							a.Set(tx, a.Get(tx)+1)
							b.Set(tx, b.Get(tx)+1)
							if i%17 == 0 {
								return errBoom
							}
							return nil
						})
						if err != nil && !errors.Is(err, errBoom) {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if errors.Is(err, errBoom) {
							userErrs.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			var total int
			if err := s.Atomically(func(tx *Txn) error {
				total = 0
				for _, r := range refs {
					total += r.Get(tx)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			committed := uint64(4*txns) - userErrs.Load()
			if got, wantTotal := uint64(total), 2*committed; got != wantTotal {
				t.Fatalf("counter total = %d, want %d (%d committed txns)", got, wantTotal, committed)
			}
		})
	}
}

// TestAllocsPerTxnGate is the tier-1 allocation gate of the zero-allocation
// hot path: the uninstrumented Figure-4 read-write patterns must run at ≤2
// allocs per transaction in steady state (the surviving allocations are the
// published box — it escapes to concurrent readers by design — plus at most
// one interface boxing of the written value). Before descriptor pooling and
// the inline write set this path cost 9 allocs/txn.
func TestAllocsPerTxnGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	const maxAllocs = 2
	for _, backend := range []string{"tl2", "ccstm", "eager", "norec"} {
		t.Run(backend+"/read-modify-write", func(t *testing.T) {
			s := New(WithBackend(backend))
			r := NewRef(s, 0)
			var txErr error
			fn := func(tx *Txn) error {
				r.Set(tx, r.Get(tx)+1)
				return nil
			}
			body := func() {
				if err := s.Atomically(fn); err != nil {
					txErr = err
				}
			}
			for i := 0; i < 64; i++ {
				body() // reach pool + log-capacity steady state
			}
			avg := testing.AllocsPerRun(500, body)
			if txErr != nil {
				t.Fatal(txErr)
			}
			if avg > maxAllocs {
				t.Fatalf("read-modify-write path: %.1f allocs/txn, gate is %d", avg, maxAllocs)
			}
		})
		t.Run(backend+"/read-mostly", func(t *testing.T) {
			s := New(WithBackend(backend))
			refs := make([]*Ref[int], 16)
			for i := range refs {
				refs[i] = NewRef(s, i)
			}
			var txErr error
			fn := func(tx *Txn) error {
				for _, r := range refs[:15] {
					_ = r.Get(tx)
				}
				refs[15].Set(tx, 7)
				return nil
			}
			body := func() {
				if err := s.Atomically(fn); err != nil {
					txErr = err
				}
			}
			for i := 0; i < 64; i++ {
				body()
			}
			avg := testing.AllocsPerRun(500, body)
			if txErr != nil {
				t.Fatal(txErr)
			}
			if avg > maxAllocs {
				t.Fatalf("read-mostly path: %.1f allocs/txn, gate is %d", avg, maxAllocs)
			}
		})
	}
}

// TestChaosDeterminismWithPooling pins that descriptor pooling did not
// change the chaos fault schedule: serial assignment is untouched by reuse,
// so two runs with the same seed draw identical faults.
func TestChaosDeterminismWithPooling(t *testing.T) {
	run := func() (commits, aborts uint64) {
		s := New(WithBackend("tl2"), WithChaos(ChaosConfig{Seed: 7, AbortEvery: 4}))
		r := NewRef(s, 0)
		for i := 0; i < 500; i++ {
			if err := s.Atomically(func(tx *Txn) error {
				r.Set(tx, r.Get(tx)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		return st.Commits, st.Aborts
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 || a1 != a2 {
		t.Fatalf("chaos schedule not deterministic across pooled runs: (%d,%d) vs (%d,%d)", c1, a1, c2, a2)
	}
	if a1 == 0 {
		t.Fatal("chaos injected no aborts; determinism check vacuous")
	}
}

// TestPoolStateWordIncarnation pins the anti-ABA property of pooled
// descriptors: a doom CAS armed against an old incarnation's state word must
// fail against the descriptor's next incarnation, even at the same attempt
// number and status.
func TestPoolStateWordIncarnation(t *testing.T) {
	s := New()
	r := NewRef(s, 0)
	var snaps []uint64
	var descs []*Txn
	for i := 0; i < 2; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			snaps = append(snaps, tx.stateSnapshot())
			descs = append(descs, tx)
			r.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if descs[0] != descs[1] {
		t.Skip("pool did not reuse the descriptor (GC raced the test)")
	}
	if snaps[0] == snaps[1] {
		t.Fatalf("state words identical across incarnations: %#x", snaps[0])
	}
	if snaps[0]>>stateIncShift == snaps[1]>>stateIncShift {
		t.Fatalf("incarnation bits did not advance: %#x vs %#x", snaps[0], snaps[1])
	}
	// The stale snapshot must not be able to doom the live descriptor.
	if doomTxn(descs[1], snaps[0]) {
		t.Fatal("stale-incarnation snapshot doomed a recycled descriptor")
	}
}

// TestPoolRetrySurvivesWakeups re-runs the Retry abandonment regression
// against pooled descriptors: unrelated commits waking a parked consumer
// must not poison or abandon it, however many attempts accumulate.
func TestPoolRetrySurvivesWakeups(t *testing.T) {
	s := New(WithMaxAttempts(5))
	flag := NewRef(s, 0)
	noise := NewRef(s, 0)
	done := make(chan error, 1)
	go func() {
		done <- s.Atomically(func(tx *Txn) error {
			if flag.Get(tx) == 0 {
				Retry(tx)
			}
			return nil
		})
	}()
	// 10× the abandonment bound in unrelated wake-ups.
	for i := 0; i < 50; i++ {
		if err := s.Atomically(func(tx *Txn) error { noise.Set(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Atomically(func(tx *Txn) error { flag.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked consumer failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked consumer never woke")
	}
}

// TestPoolCloseReleasesCleanly pins Close + pooling: transactions failing
// with ErrClosed still recycle their descriptors without corruption.
func TestPoolCloseReleasesCleanly(t *testing.T) {
	s := New()
	r := NewRef(s, 41)
	if err := s.Atomically(func(tx *Txn) error { r.Set(tx, 42); return nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Atomically(func(tx *Txn) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close txn returned %v, want ErrClosed", err)
	}
	if got := r.Load(); got != 42 {
		t.Fatalf("committed value lost across Close: %d", got)
	}
}

func ExampleSTM_Atomically_pooled() {
	s := New()
	counter := NewRef(s, 0)
	for i := 0; i < 3; i++ {
		_ = s.Atomically(func(tx *Txn) error {
			counter.Set(tx, counter.Get(tx)+1)
			return nil
		})
	}
	fmt.Println(counter.Load())
	// Output: 3
}
