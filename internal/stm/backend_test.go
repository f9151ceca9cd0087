package stm

import (
	"errors"
	"sync"
	"testing"
)

// forEachBackend runs f once per registered backend, on a fresh STM built
// through the registry (not through WithPolicy), so the tests cover exactly
// what the registry exposes.
func forEachBackend(t *testing.T, f func(t *testing.T, s *STM)) {
	t.Helper()
	for _, bf := range Backends() {
		bf := bf
		t.Run(bf.Name, func(t *testing.T) {
			f(t, New(WithBackend(bf.Name)))
		})
	}
}

// backendVariant is one registered backend, or (chaos) the fault-injection
// wrapper composed over it by WithChaos(DefaultChaosConfig()), named
// "chaos-<inner>" as the wrapped instance reports itself.
type backendVariant struct {
	name  string
	chaos bool
	opts  []Option
}

// withChaosVariants returns every registered backend plus its chaos-wrapped
// variant.
func withChaosVariants() []backendVariant {
	var out []backendVariant
	for _, name := range BackendNames() {
		out = append(out,
			backendVariant{name: name, opts: []Option{WithBackend(name)}},
			backendVariant{name: "chaos-" + name, chaos: true, opts: []Option{WithBackend(name), WithChaos(DefaultChaosConfig())}})
	}
	return out
}

func TestBackendRegistryComplete(t *testing.T) {
	want := map[string]DetectionPolicy{
		"tl2":   LazyLazy,
		"ccstm": MixedEagerWWLazyRW,
		"eager": EagerEager,
		"norec": NOrec,
		"mvcc":  MultiVersion,
	}
	if n := len(Backends()); n != len(want) {
		t.Fatalf("registry has %d backends, want %d: %v", n, len(want), BackendNames())
	}
	for name, policy := range want {
		bf, ok := BackendByName(name)
		if !ok {
			t.Fatalf("backend %q not registered", name)
		}
		if bf.Policy != policy {
			t.Errorf("backend %q policy = %v, want %v", name, bf.Policy, policy)
		}
		b := bf.New()
		if b.Name() != name {
			t.Errorf("backend %q instance reports Name() = %q", name, b.Name())
		}
		if b.Policy() != policy {
			t.Errorf("backend %q instance reports Policy() = %v, want %v", name, b.Policy(), policy)
		}
		if bf.Doc == "" {
			t.Errorf("backend %q has no description", name)
		}
	}
	// Each policy resolves back to a backend (WithPolicy compatibility).
	for _, p := range []DetectionPolicy{LazyLazy, MixedEagerWWLazyRW, EagerEager, NOrec, MultiVersion} {
		if _, ok := backendForPolicy(p); !ok {
			t.Errorf("no backend for policy %v", p)
		}
	}
}

func TestWithBackendUnknownPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("WithBackend with unknown name did not panic")
		}
	}()
	New(WithBackend("no-such-backend"))
}

func TestBackendInstancesNotShared(t *testing.T) {
	a := New(WithBackend("norec"))
	b := New(WithBackend("norec"))
	if a.Backend() == b.Backend() {
		t.Fatal("two STMs share one norec backend instance (per-STM state would collide)")
	}
}

// TestLifecycleHooksPerBackend exercises OnCommitLocked and TxnLocal under
// every registered backend: the replay-log contract (Section 4 of the paper)
// must hold regardless of which backend runs the transaction.
func TestLifecycleHooksPerBackend(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		t.Run("OnCommitLockedRunsInsideCriticalSection", func(t *testing.T) {
			r := NewRef(s, 0)
			probe := NewRef(s, 0)
			var lockedRan, commitRan bool
			if err := s.Atomically(func(tx *Txn) error {
				r.Set(tx, 7)
				tx.OnCommitLocked(func() { lockedRan = true })
				tx.OnCommit(func() {
					if !lockedRan {
						t.Error("OnCommit ran before OnCommitLocked")
					}
					commitRan = probe.Load() == 0 && r.Load() == 7
				})
				return nil
			}); err != nil {
				t.Fatalf("Atomically: %v", err)
			}
			if !lockedRan {
				t.Fatal("OnCommitLocked did not run")
			}
			if !commitRan {
				t.Fatal("OnCommit did not observe the published value")
			}
		})

		t.Run("OnCommitLockedForcesWritePathOnReadOnlyTxn", func(t *testing.T) {
			// A read-only transaction with an OnCommitLocked hook must still
			// run the hook (Proust replay logs may exist without STM-level
			// writes when all effects live in the base structure).
			ran := 0
			if err := s.Atomically(func(tx *Txn) error {
				tx.OnCommitLocked(func() { ran++ })
				return nil
			}); err != nil {
				t.Fatalf("Atomically: %v", err)
			}
			if ran != 1 {
				t.Fatalf("OnCommitLocked ran %d times on read-only txn, want 1", ran)
			}
		})

		t.Run("HooksNotRunOnAbort", func(t *testing.T) {
			var committed, aborted int
			_ = s.Atomically(func(tx *Txn) error {
				tx.OnCommit(func() { committed++ })
				tx.OnCommitLocked(func() { committed++ })
				tx.OnAbort(func() { aborted++ })
				return errors.New("abort")
			})
			if committed != 0 {
				t.Fatalf("commit hooks ran %d times on abort", committed)
			}
			if aborted != 1 {
				t.Fatalf("abort hooks ran %d times, want 1", aborted)
			}
		})

		t.Run("TxnLocalFreshPerAttempt", func(t *testing.T) {
			r := NewRef(s, 0)
			inits := 0
			local := NewTxnLocal(func(tx *Txn) int {
				inits++
				return tx.Attempt()
			})
			attempts := 0
			err := s.Atomically(func(tx *Txn) error {
				attempts++
				if got := local.Get(tx); got != attempts {
					t.Errorf("TxnLocal = %d on attempt %d (stale value leaked)", got, attempts)
				}
				if attempts == 1 {
					// Force a conflict: read r, let a rival commit, then
					// write so commit-time (or read-time) validation fails.
					_ = r.Get(tx)
					done := make(chan struct{})
					go func() {
						defer close(done)
						_ = s.Atomically(func(tx2 *Txn) error {
							r.Set(tx2, 1)
							return nil
						})
					}()
					<-done
					r.Set(tx, r.Get(tx)+10)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Atomically: %v", err)
			}
			if attempts < 2 {
				t.Fatalf("attempts = %d, want >= 2 (forced conflict)", attempts)
			}
			if inits != attempts {
				t.Fatalf("TxnLocal initializer ran %d times over %d attempts", inits, attempts)
			}
		})

		t.Run("TxnLocalSetPeek", func(t *testing.T) {
			local := NewTxnLocal(func(tx *Txn) string { return "init" })
			if err := s.Atomically(func(tx *Txn) error {
				if _, ok := local.Peek(tx); ok {
					t.Error("Peek hit before first access")
				}
				local.Set(tx, "explicit")
				if v, ok := local.Peek(tx); !ok || v != "explicit" {
					t.Errorf("Peek after Set = %q,%v", v, ok)
				}
				if v := local.Get(tx); v != "explicit" {
					t.Errorf("Get after Set = %q (initializer must not overwrite)", v)
				}
				return nil
			}); err != nil {
				t.Fatalf("Atomically: %v", err)
			}
		})
	})
}

// TestBackendsIsolatedAcrossSTMs is the regression test for the NOrec
// readVersion-field hijack: a TL2 STM and a NOrec STM run concurrently in
// the same process, and each transaction's snapshot state must stay
// backend-private. Before the backend split, NOrec reused the TL2
// readVersion word; with distinct fields (Txn.readVersion vs Txn.snapshot)
// and a per-backend sequence lock, both instances must stay consistent under
// cross-traffic.
func TestBackendsIsolatedAcrossSTMs(t *testing.T) {
	const (
		goroutines = 4
		increments = 300
	)
	tl2STM := New(WithBackend("tl2"))
	norecSTM := New(WithBackend("norec"))
	tl2Ref := NewRef(tl2STM, 0)
	norecRef := NewRef(norecSTM, 0)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				if err := tl2STM.Atomically(func(tx *Txn) error {
					tl2Ref.Set(tx, tl2Ref.Get(tx)+1)
					return nil
				}); err != nil {
					t.Errorf("tl2: %v", err)
					return
				}
				if err := norecSTM.Atomically(func(tx *Txn) error {
					norecRef.Set(tx, norecRef.Get(tx)+1)
					return nil
				}); err != nil {
					t.Errorf("norec: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tl2Ref.Load(); got != goroutines*increments {
		t.Fatalf("tl2 counter = %d, want %d", got, goroutines*increments)
	}
	if got := norecRef.Load(); got != goroutines*increments {
		t.Fatalf("norec counter = %d, want %d", got, goroutines*increments)
	}
	if seq := norecSTM.backend.(*norecBackend).seq.Load(); seq&1 != 0 {
		t.Fatalf("norec sequence lock left odd: %d", seq)
	}
	// The TL2 clock advanced once per writing commit and is untouched by
	// NOrec commits (they bump the backend-owned sequence lock instead).
	if tl2STM.GlobalClock() == 0 {
		t.Fatal("tl2 clock did not advance")
	}
	if norecSTM.GlobalClock() != 0 {
		t.Fatalf("norec commits advanced the versioned clock (%d); sequence state leaked across backends",
			norecSTM.GlobalClock())
	}
}

// TestAbortCauseBreakdown checks the unified abort-cause stats: a user
// abort, a validation abort and a max-attempts abandonment must each land in
// their own counter.
func TestAbortCauseBreakdown(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *STM) {
		r := NewRef(s, 0)
		// User abort.
		_ = s.Atomically(func(tx *Txn) error {
			r.Set(tx, 1)
			return errors.New("user")
		})
		// Validation (or conflict) abort: read, rival commits, write.
		attempts := 0
		if err := s.Atomically(func(tx *Txn) error {
			attempts++
			v := r.Get(tx)
			if attempts == 1 {
				done := make(chan struct{})
				go func() {
					defer close(done)
					_ = s.Atomically(func(tx2 *Txn) error {
						r.Set(tx2, 5)
						return nil
					})
				}()
				<-done
			}
			r.Set(tx, v+1)
			return nil
		}); err != nil {
			t.Fatalf("Atomically: %v", err)
		}
		st := s.Stats()
		if st.UserAborts != 1 {
			t.Errorf("UserAborts = %d, want 1", st.UserAborts)
		}
		forced := st.ValidationAborts + st.ConflictAborts + st.DoomedAborts
		if forced == 0 {
			t.Errorf("forced conflict recorded no cause: %+v", st.AbortsByCause())
		}
		if st.Aborts != st.UserAborts+forced {
			t.Errorf("Aborts = %d, want sum of causes %d", st.Aborts, st.UserAborts+forced)
		}
	})
}

func TestMaxAttemptsCountedInStats(t *testing.T) {
	s := New(WithMaxAttempts(2))
	r := NewRef(s, 0)
	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- s.Atomically(func(tx *Txn) error {
			r.Set(tx, 1)
			once.Do(func() { close(holding) })
			<-release
			return nil
		})
	}()
	<-holding
	err := s.Atomically(func(tx *Txn) error {
		r.Set(tx, 2)
		return nil
	})
	close(release)
	if !errors.Is(err, ErrMaxAttempts) {
		t.Fatalf("err = %v, want ErrMaxAttempts", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if got := s.Stats().MaxAttemptsAborts; got != 1 {
		t.Fatalf("MaxAttemptsAborts = %d, want 1", got)
	}
}

// TestCommitHistogramsPopulated: writing transactions must record lock-hold
// durations, and a forced commit-time validation must record a validation
// duration, on every backend.
func TestCommitHistogramsPopulated(t *testing.T) {
	// Durations are sampled 1-in-histSampleEvery, so each scenario loops
	// until its histogram is hit (bounded; the odds of 500 consecutive
	// unsampled attempts are (7/8)^500 ≈ 10^-29).
	const maxLoops = 500
	forEachBackend(t, func(t *testing.T, s *STM) {
		r := NewRef(s, 0)
		for i := 0; i < maxLoops && s.Stats().LockHold.Count == 0; i++ {
			if err := s.Atomically(func(tx *Txn) error {
				r.Set(tx, r.Get(tx)+1)
				return nil
			}); err != nil {
				t.Fatalf("Atomically: %v", err)
			}
		}
		st := s.Stats()
		if st.LockHold.Count == 0 {
			t.Fatalf("LockHold histogram empty after %d writing commits", st.Commits)
		}
		if q := st.LockHold.Quantile(0.5); q <= 0 {
			t.Fatalf("LockHold median = %v, want > 0", q)
		}

		// The eager backend legitimately skips commit-time validation
		// (visible readers make it unnecessary).
		if s.Backend().Name() == "eager" {
			return
		}
		// Force commit-time validation: a read plus an interleaved rival
		// commit guarantees the commit timestamp differs from readVersion+1
		// (versioned backends) or a sequence miss (norec).
		other := NewRef(s, 0)
		for i := 0; i < maxLoops && s.Stats().ValidationTime.Count == 0; i++ {
			rivalled := false
			if err := s.Atomically(func(tx *Txn) error {
				_ = other.Get(tx)
				if !rivalled {
					rivalled = true
					done := make(chan struct{})
					go func() {
						defer close(done)
						_ = s.Atomically(func(tx2 *Txn) error {
							r.Set(tx2, 100)
							return nil
						})
					}()
					<-done
				}
				r.Set(tx, 1)
				return nil
			}); err != nil {
				t.Fatalf("Atomically: %v", err)
			}
		}
		if st = s.Stats(); st.ValidationTime.Count == 0 {
			t.Fatalf("ValidationTime histogram empty after forced validation (backend %s)", s.Backend().Name())
		}
	})
}

// countingTracer aggregates trace events per kind and cause.
type countingTracer struct {
	mu      sync.Mutex
	commits int
	aborts  map[AbortCause]int
	backend string
}

func (ct *countingTracer) Trace(ev TraceEvent) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.backend = ev.Backend
	switch ev.Kind {
	case TraceCommit:
		ct.commits++
	case TraceAbort:
		if ct.aborts == nil {
			ct.aborts = make(map[AbortCause]int)
		}
		ct.aborts[ev.Cause]++
	}
}

func TestTracerObservesLifecycle(t *testing.T) {
	for _, v := range withChaosVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			ct := &countingTracer{}
			s := New(append(v.opts, WithTracer(ct))...)
			r := NewRef(s, 0)
			for i := 0; i < 3; i++ {
				if err := s.Atomically(func(tx *Txn) error {
					r.Set(tx, r.Get(tx)+1)
					return nil
				}); err != nil {
					t.Fatalf("Atomically: %v", err)
				}
			}
			_ = s.Atomically(func(tx *Txn) error { return errors.New("boom") })
			ct.mu.Lock()
			defer ct.mu.Unlock()
			if ct.commits != 3 {
				t.Errorf("tracer commits = %d, want 3", ct.commits)
			}
			if ct.aborts[CauseUser] != 1 {
				t.Errorf("tracer user aborts = %d, want 1 (%v)", ct.aborts[CauseUser], ct.aborts)
			}
			if ct.backend != v.name {
				t.Errorf("tracer backend = %q, want %q", ct.backend, v.name)
			}
		})
	}
}

func TestDurationHistQuantile(t *testing.T) {
	var h DurationHist
	h.observe(100) // bucket len(100)=7 → upper 128ns
	h.observe(100)
	h.observe(1000) // bucket 10 → upper 1024ns
	s := h.snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if q := s.Quantile(0.5); q != 128 {
		t.Errorf("median = %v, want 128ns upper bound", q)
	}
	if q := s.Quantile(1.0); q != 1024 {
		t.Errorf("p100 = %v, want 1024ns upper bound", q)
	}
	h.reset()
	if h.snapshot().Count != 0 {
		t.Error("reset did not clear histogram")
	}
}

func TestAbortCauseStrings(t *testing.T) {
	want := map[AbortCause]string{
		CauseNone:         "none",
		CauseLockConflict: "lock-conflict",
		CauseValidation:   "validation",
		CauseDoomed:       "doomed",
		CauseUser:         "user",
		CauseMaxAttempts:  "max-attempts",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}
