package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"proust/internal/conc"
	"proust/internal/stm"
)

// errInjected is the user-level abort injected by the pool-poisoning tests:
// returning it from a transaction body rolls the transaction back without a
// retry, which is exactly the path that recycles pooled undo and replay logs
// after an abort.
var errInjected = errors.New("injected abort")

// TestRecycledLogsMatchModel is the pool-poisoning suite: a long deterministic
// stream of transactions — roughly a third of which abort after mutating —
// must leave every map variant indistinguishable from a model map, at every
// opaque design point. A pooled undo or replay log that survives recycling
// with stale records (a poisoned pool) corrupts either the rollback of the
// aborting transaction or the effects of the fresh transaction that inherits
// its storage; both diverge from the model.
func TestRecycledLogsMatchModel(t *testing.T) {
	const (
		keyRange = 64
		txns     = 400
		opsPer   = 8
	)
	forEachMapCombo(t, true, func(t *testing.T, s *stm.STM, m TxMap[int, int]) {
		rng := rand.New(rand.NewSource(7))
		model := make(map[int]int)
		for i := 0; i < txns; i++ {
			abort := rng.Intn(3) == 0
			staged := make(map[int]int, len(model)+opsPer)
			for k, v := range model {
				staged[k] = v
			}
			kind := make([]int, opsPer)
			keys := make([]int, opsPer)
			vals := make([]int, opsPer)
			for j := 0; j < opsPer; j++ {
				kind[j], keys[j], vals[j] = rng.Intn(3), rng.Intn(keyRange), rng.Int()
			}
			err := s.Atomically(func(tx *stm.Txn) error {
				// Rebuild the staged view per attempt so retries replay
				// identically.
				clear(staged)
				for k, v := range model {
					staged[k] = v
				}
				for j := 0; j < opsPer; j++ {
					switch kind[j] {
					case 0:
						m.Put(tx, keys[j], vals[j])
						staged[keys[j]] = vals[j]
					case 1:
						got, ok := m.Get(tx, keys[j])
						want, wok := staged[keys[j]]
						if ok != wok || (ok && got != want) {
							return fmt.Errorf("txn %d op %d: Get(%d) = (%d,%v), model (%d,%v)",
								i, j, keys[j], got, ok, want, wok)
						}
					case 2:
						m.Remove(tx, keys[j])
						delete(staged, keys[j])
					}
				}
				if got := m.Size(tx); got != len(staged) {
					return fmt.Errorf("txn %d: Size = %d, staged model has %d", i, got, len(staged))
				}
				if abort {
					return errInjected
				}
				return nil
			})
			switch {
			case abort && !errors.Is(err, errInjected):
				t.Fatalf("txn %d: expected injected abort, got %v", i, err)
			case !abort && err != nil:
				t.Fatalf("txn %d: %v", i, err)
			case !abort:
				model, staged = staged, nil
			}
		}
		// Quiescent audit: the structure must agree with the model exactly —
		// membership, values, and the reified size.
		if err := s.Atomically(func(tx *stm.Txn) error {
			for k := 0; k < keyRange; k++ {
				got, ok := m.Get(tx, k)
				want, wok := model[k]
				if ok != wok || (ok && got != want) {
					return fmt.Errorf("final Get(%d) = (%d,%v), model (%d,%v)", k, got, ok, want, wok)
				}
				if m.Contains(tx, k) != wok {
					return fmt.Errorf("final Contains(%d) = %v, model %v", k, !wok, wok)
				}
			}
			if got := m.Size(tx); got != len(model) {
				return fmt.Errorf("final Size = %d, model has %d", got, len(model))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecycledLogsUnderChaos runs the bank-conservation invariant with both
// chaos-injected backend aborts and user-level aborts: every rollback path —
// conflict, spurious chaos conflict, user error — recycles the pooled logs
// while concurrent transactions are drawing fresh ones from the same pools,
// and an aborted transfer must never move money. Run with -race this is the
// concurrent half of the pool-poisoning suite.
func TestRecycledLogsUnderChaos(t *testing.T) {
	const (
		accounts = 8
		initial  = 100
		total    = accounts * initial
		workers  = 4
		perW     = 150
	)
	for _, v := range mapVariants() {
		for _, p := range opaquePoints(v.strat) {
			v, p := v, p
			t.Run(fmt.Sprintf("%s/%s", v.name, p), func(t *testing.T) {
				s := stm.New(stm.WithPolicy(p.policy), stm.WithChaos(stm.ChaosConfig{
					Seed:        3,
					AbortEvery:  32,
					DelayEvery:  64,
					CommitDelay: 5 * time.Microsecond,
				}))
				m := v.build(s, newIntLAP(s, p))
				if err := s.Atomically(func(tx *stm.Txn) error {
					for a := 0; a < accounts; a++ {
						m.Put(tx, a, initial)
					}
					return nil
				}); err != nil {
					t.Fatalf("setup: %v", err)
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < perW; i++ {
							from, to := rng.Intn(accounts), rng.Intn(accounts)
							if from == to {
								continue
							}
							amt := rng.Intn(20) + 1
							abort := rng.Intn(4) == 0
							err := s.Atomically(func(tx *stm.Txn) error {
								fv, _ := m.Get(tx, from)
								tv, _ := m.Get(tx, to)
								m.Put(tx, from, fv-amt)
								m.Put(tx, to, tv+amt)
								if abort {
									return errInjected
								}
								return nil
							})
							if err != nil && !errors.Is(err, errInjected) {
								t.Errorf("transfer: %v", err)
								return
							}
						}
					}(int64(w))
				}
				wg.Wait()
				if err := s.Atomically(func(tx *stm.Txn) error {
					sum := 0
					for a := 0; a < accounts; a++ {
						bal, ok := m.Get(tx, a)
						if !ok {
							return fmt.Errorf("account %d missing", a)
						}
						sum += bal
					}
					if sum != total {
						return fmt.Errorf("conservation violated: total %d, want %d", sum, total)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSnapshotLogShadowReuse pins the incremental-shadow contract of the
// replay log (lazy wrappers): within a transaction the shadow replays the
// pending log from the applied watermark, so every read observes the
// transaction's own earlier operations, in order — a double-applied suffix
// would resurrect removed keys; and across transactions a recycled pooled
// state must re-derive its shadow whenever a commit has replayed onto the
// base since the cached snapshot was taken (stale-shadow regression).
func TestSnapshotLogShadowReuse(t *testing.T) {
	for _, v := range mapVariants() {
		if v.strat != Lazy {
			continue
		}
		v := v
		t.Run(v.name+"/own-ops-in-order", func(t *testing.T) {
			p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
			s := stm.New(stm.WithPolicy(p.policy))
			m := v.build(s, newIntLAP(s, p))
			if err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, 1, 10)
				if got, ok := m.Get(tx, 1); !ok || got != 10 {
					return fmt.Errorf("after Put: Get(1) = (%d,%v), want (10,true)", got, ok)
				}
				m.Put(tx, 1, 11)
				if got, ok := m.Get(tx, 1); !ok || got != 11 {
					return fmt.Errorf("after overwrite: Get(1) = (%d,%v), want (11,true)", got, ok)
				}
				m.Remove(tx, 1)
				if _, ok := m.Get(tx, 1); ok {
					return errors.New("after Remove: Get(1) still present (replayed suffix out of order)")
				}
				m.Put(tx, 2, 20)
				m.Put(tx, 3, 30)
				if got := m.Size(tx); got != 2 {
					return fmt.Errorf("Size = %d, want 2", got)
				}
				if _, ok := m.Get(tx, 1); ok {
					return errors.New("Get(1) resurrected by a later shadow sync (watermark bug)")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(v.name+"/rederive-after-commit", func(t *testing.T) {
			p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
			s := stm.New(stm.WithPolicy(p.policy))
			m := v.build(s, newIntLAP(s, p))
			// txn 1 populates the pooled state's shadow and commits (the
			// commit replay bumps the log generation).
			if err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, 10, 1)
				_, _ = m.Get(tx, 10)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// A commit from another goroutine moves the base again.
			done := make(chan error, 1)
			go func() {
				done <- s.Atomically(func(tx *stm.Txn) error {
					m.Put(tx, 11, 2)
					return nil
				})
			}()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// txn 2 on the original goroutine draws the recycled state; its
			// shadow must be re-derived from the current base, not reused.
			if err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, 12, 3) // force the shadow path (pending log non-empty)
				for k, want := range map[int]int{10: 1, 11: 2, 12: 3} {
					got, ok := m.Get(tx, k)
					if !ok || got != want {
						return fmt.Errorf("Get(%d) = (%d,%v), want (%d,true): stale recycled shadow", k, got, ok, want)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(v.name+"/abort-discards-pending", func(t *testing.T) {
			p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
			s := stm.New(stm.WithPolicy(p.policy))
			m := v.build(s, newIntLAP(s, p))
			err := s.Atomically(func(tx *stm.Txn) error {
				m.Put(tx, 1, 1)
				m.Put(tx, 2, 2)
				return errInjected
			})
			if !errors.Is(err, errInjected) {
				t.Fatalf("expected injected abort, got %v", err)
			}
			// The recycled pending log must not leak the aborted ops into the
			// next transaction's replay.
			if err := s.Atomically(func(tx *stm.Txn) error {
				if m.Contains(tx, 1) || m.Contains(tx, 2) {
					return errors.New("aborted pending ops replayed by recycled log")
				}
				m.Put(tx, 3, 3)
				if got := m.Size(tx); got != 1 {
					return fmt.Errorf("Size = %d, want 1", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotLogDiscardedShadowsDoNotPoison covers the replay log's side of
// the Ctrie's private-shadow recycling: a LazySnapshotMap hands its shadow
// back (conc.Ctrie.Discard) on commit, on abort, and when a commit by
// somebody else has made the cached shadow stale in the middle of a
// transaction. The discarded nodes are handed out again at once — to the
// next shadow and to the base's commit replay — so a discard that gave back
// a node the base (or the re-derived shadow) can still reach surfaces as a
// wrong or foreign value. Values are self-describing: v % (2*keys) == key.
func TestSnapshotLogDiscardedShadowsDoNotPoison(t *testing.T) {
	const (
		keys   = 64 // [0,keys) belong to the main goroutine, [keys,2*keys) to the helper
		opsPer = 8
	)
	txns := 900
	if raceEnabled {
		txns = 300
	}
	p := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
	s := stm.New(stm.WithPolicy(p.policy))
	m := NewLazySnapshotMap[int, int](s, newIntLAP(s, p), conc.IntHasher)
	val := func(k, n int) int { return k + 2*keys*(n+1) }
	check := func(where string, k, v int) error {
		if v%(2*keys) != k {
			return fmt.Errorf("%s: key %d holds %d, another key's value", where, k, v)
		}
		return nil
	}
	if err := s.Atomically(func(tx *stm.Txn) error {
		for k := keys; k < 2*keys; k++ {
			m.Put(tx, k, val(k, 0))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The helper overwrites its own, always-present keys — no size change, so
	// it conflicts with the main goroutine only through a LAP slot collision —
	// once per poke, and records what it wrote.
	poke, ack := make(chan int), make(chan error)
	foreign := make(map[int]int)
	go func() {
		for n := range poke {
			k := keys + n%keys
			ack <- s.Atomically(func(tx *stm.Txn) error {
				old, _ := m.Put(tx, k, val(k, n))
				return check("helper Put", k, old)
			})
			foreign[k] = val(k, n)
		}
		close(ack)
	}()

	rng := rand.New(rand.NewSource(11))
	model := make(map[int]int)
	for i := 0; i < txns; i++ {
		mode := i % 3 // 0 commit, 1 abort after mutating, 2 commit across a foreign commit
		kind, ks := make([]int, opsPer), make([]int, opsPer)
		for j := range kind {
			kind[j], ks[j] = rng.Intn(3), rng.Intn(keys)
		}
		kind[0], kind[opsPer/2] = 0, 0 // a mutation on either side of the foreign commit
		staged := make(map[int]int)
		attempt := 0
		err := s.Atomically(func(tx *stm.Txn) error {
			clear(staged)
			for k, v := range model {
				staged[k] = v
			}
			for j := 0; j < opsPer; j++ {
				if j == opsPer/2 && mode == 2 && attempt == 0 {
					// Only on the first attempt: a retry must be able to finish.
					poke <- i
					if err := <-ack; err != nil {
						return err
					}
				}
				k := ks[j]
				switch kind[j] {
				case 0:
					m.Put(tx, k, val(k, i))
					staged[k] = val(k, i)
				case 1:
					got, ok := m.Get(tx, k)
					if want, wok := staged[k]; ok != wok || got != want {
						return fmt.Errorf("txn %d op %d: Get(%d) = (%d,%v), model (%d,%v)", i, j, k, got, ok, want, wok)
					}
				case 2:
					m.Remove(tx, k)
					delete(staged, k)
				}
			}
			attempt++
			if mode == 1 {
				return errInjected
			}
			return nil
		})
		switch {
		case mode == 1 && !errors.Is(err, errInjected):
			t.Fatalf("txn %d: expected injected abort, got %v", i, err)
		case mode != 1 && err != nil:
			t.Fatalf("txn %d: %v", i, err)
		case mode != 1:
			model = staged
		}
	}
	close(poke)
	<-ack

	if err := s.Atomically(func(tx *stm.Txn) error {
		for k := 0; k < 2*keys; k++ {
			got, ok := m.Get(tx, k)
			want, wok := model[k]
			if k >= keys {
				if want, wok = foreign[k]; !wok {
					want, wok = val(k, 0), true
				}
			}
			if ok != wok || got != want {
				return fmt.Errorf("final Get(%d) = (%d,%v), want (%d,%v)", k, got, ok, want, wok)
			}
		}
		if got, want := m.Size(tx), len(model)+keys; got != want {
			return fmt.Errorf("final Size = %d, want %d", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledLogsSpareCapacityZero pins the pooling invariant of the ADT
// logs (see truncate): once a transaction has finished, every log it drew —
// the eager undo records, the snapshot log's pending records, the memo log's
// ops and first-touch order — is empty and all-zero through its capacity, so
// a parked log pins no key or value and owes no clearing to its next user.
// The first attempt is long and aborts, the final one is short and either
// commits or fails with a user error: records the long attempt appended lie
// beyond anything the final attempt's lengths cover, so they must have been
// zeroed when that attempt's log was released.
func TestRecycledLogsSpareCapacityZero(t *testing.T) {
	const long, short = 300, 2
	pess := designPoint{policy: stm.MixedEagerWWLazyRW}
	opt := designPoint{policy: stm.MixedEagerWWLazyRW, optimistic: true}
	// peek returns pointers to the log slices attached to tx.
	cases := []struct {
		name  string
		build func(s *stm.STM) (m TxMap[int, int], peek func(tx *stm.Txn) []any)
	}{
		{"undoLog", func(s *stm.STM) (TxMap[int, int], func(*stm.Txn) []any) {
			m := NewMap[int, int](s, newIntLAP(s, pess), conc.IntHasher)
			return m, func(tx *stm.Txn) []any {
				lg, _ := m.undo.p.Peek(tx)
				return []any{&lg.recs}
			}
		}},
		{"SnapshotLog", func(s *stm.STM) (TxMap[int, int], func(*stm.Txn) []any) {
			m := NewLazySnapshotMap[int, int](s, newIntLAP(s, opt), conc.IntHasher)
			return m, func(tx *stm.Txn) []any {
				st, _ := m.log.local.Peek(tx)
				return []any{&st.pending}
			}
		}},
		{"MemoLog", func(s *stm.STM) (TxMap[int, int], func(*stm.Txn) []any) {
			m := NewLazyMemoMap[int, int](s, newIntLAP(s, opt), conc.IntHasher, false)
			return m, func(tx *stm.Txn) []any {
				st, _ := m.log.local.Peek(tx)
				return []any{&st.ops, &st.order}
			}
		}},
		{"MemoLog-combining", func(s *stm.STM) (TxMap[int, int], func(*stm.Txn) []any) {
			m := NewLazyMemoMap[int, int](s, newIntLAP(s, opt), conc.IntHasher, true)
			return m, func(tx *stm.Txn) []any {
				st, _ := m.log.local.Peek(tx)
				return []any{&st.ops, &st.order}
			}
		}},
	}
	for _, c := range cases {
		for _, final := range []string{"commit", "abort"} {
			t.Run(c.name+"/"+final, func(t *testing.T) {
				s := stm.New(stm.WithPolicy(stm.MixedEagerWWLazyRW))
				m, peek := c.build(s)
				for round := 0; round < 3; round++ {
					var logs []any
					attempts := 0
					err := s.Atomically(func(tx *stm.Txn) error {
						attempts++
						n := short
						if attempts == 1 {
							n = long
						}
						for k := 1; k <= n; k++ {
							m.Put(tx, k, 1000+k)
						}
						m.Remove(tx, 1)
						logs = append(logs, peek(tx)...)
						if attempts == 1 {
							stm.AbortAndRetry(tx)
						}
						if final == "abort" {
							return errInjected
						}
						return nil
					})
					if (final == "abort") != errors.Is(err, errInjected) || (final == "commit" && err != nil) {
						t.Fatalf("round %d: err = %v", round, err)
					}
					warm := 0
					for _, p := range logs {
						lg := reflect.ValueOf(p).Elem()
						if lg.Len() != 0 {
							t.Fatalf("round %d: released log holds %d records", round, lg.Len())
						}
						warm = max(warm, lg.Cap())
						for i, spare := 0, lg.Slice(0, lg.Cap()); i < spare.Len(); i++ {
							if !spare.Index(i).IsZero() {
								t.Fatalf("round %d: spare capacity not zero at [%d] of cap %d: %v",
									round, i, lg.Cap(), spare.Index(i))
							}
						}
					}
					if warm < long {
						t.Fatalf("round %d: no log kept its warm array (largest cap %d)", round, warm)
					}
				}
			})
		}
	}
}

// sizeState exposes a map wrapper's committed size and the pending delta its
// pooled log holds for tx (nil when tx has drawn none).
func sizeState(m TxMap[int, int]) (*committedSize, func(tx *stm.Txn) *sizeDelta) {
	switch m := m.(type) {
	case *Map[int, int]:
		return &m.undo.size, func(tx *stm.Txn) *sizeDelta {
			if lg, ok := m.undo.p.Peek(tx); ok {
				return &lg.size
			}
			return nil
		}
	case *LazySnapshotMap[int, int]:
		return &m.log.size, func(tx *stm.Txn) *sizeDelta {
			if st, ok := m.log.local.Peek(tx); ok {
				return &st.size
			}
			return nil
		}
	case *LazyMemoMap[int, int]:
		return &m.log.size, func(tx *stm.Txn) *sizeDelta {
			if st, ok := m.log.local.Peek(tx); ok {
				return &st.size
			}
			return nil
		}
	}
	panic(fmt.Sprintf("no committed size in %T", m))
}

// TestRecycledSizeDeltaAfterEveryAbortPath is the pool-poisoning check of the
// committed size: the pending size delta rides in the wrappers' pooled logs,
// so an attempt that changed the size and then ended any way but a commit —
// conflict, user error, panic, a Retry park, a canceled context — must hand
// back a zeroed delta and leave the committed count alone. The transaction
// after it must then see exactly what a fresh map with the same committed
// history would: its own delta starting from zero and the token written
// anew on its first change.
func TestRecycledSizeDeltaAfterEveryAbortPath(t *testing.T) {
	const base = 4 // committed keys 0..base-1
	paths := []string{"conflict", "user-error", "panic", "retry-park", "ctx-cancel"}
	for _, v := range mapVariants() {
		for _, p := range opaquePoints(v.strat) {
			for _, path := range paths {
				v, p, path := v, p, path
				t.Run(fmt.Sprintf("%s/%s/%s", v.name, p, path), func(t *testing.T) {
					s := stm.New(stm.WithPolicy(p.policy))
					m := v.build(s, newIntLAP(s, p))
					committed, peek := sizeState(m)
					if err := s.Atomically(func(tx *stm.Txn) error {
						for k := 0; k < base; k++ {
							m.Put(tx, k, k)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					want := int64(base)

					// The aborting attempts: +3 -1 pending, then the path. A
					// transaction's first Retry re-executes at once, so the
					// retry-park path mutates twice and parks on the second.
					var dropped []*sizeDelta
					mutating := 1
					if path == "retry-park" {
						mutating = 2
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					woken := make(chan error, 1)
					attempts := 0
					body := func(tx *stm.Txn) error {
						attempts++
						if attempts > mutating {
							if d := peek(tx); d != nil {
								return fmt.Errorf("attempt %d inherited a size delta %+v", attempts, *d)
							}
							clean := want
							if path == "retry-park" {
								clean++ // the commit that woke it
							}
							if got := m.Size(tx); int64(got) != clean {
								return fmt.Errorf("attempt %d: Size = %d, want %d", attempts, got, clean)
							}
							return nil
						}
						for k := 10; k < 13; k++ {
							m.Put(tx, k, k)
						}
						m.Remove(tx, 0)
						d := peek(tx)
						if d == nil || *d != (sizeDelta{n: 2, written: true}) {
							return fmt.Errorf("pending delta %v, want +2 written", d)
						}
						dropped = append(dropped, d)
						if got := m.Size(tx); int64(got) != want+2 {
							return fmt.Errorf("Size = %d inside the attempt, want %d", got, want+2)
						}
						switch path {
						case "conflict":
							stm.AbortAndRetry(tx)
						case "user-error":
							return errInjected
						case "panic":
							panic("injected panic")
						case "retry-park":
							if attempts == 2 {
								// Another transaction commits one insert
								// while this one is parked, which wakes it.
								go func() {
									time.Sleep(2 * time.Millisecond)
									woken <- s.Atomically(func(tx *stm.Txn) error {
										m.Put(tx, 20, 20)
										return nil
									})
								}()
							}
							stm.Retry(tx)
						case "ctx-cancel":
							cancel()
							stm.AbortAndRetry(tx)
						}
						return nil
					}
					var err error
					switch path {
					case "panic":
						err = atomicallyOrPanic(s, body)
					case "ctx-cancel":
						err = s.AtomicallyCtx(ctx, body)
					default:
						err = s.Atomically(body)
					}
					switch path {
					case "user-error":
						if !errors.Is(err, errInjected) {
							t.Fatalf("err = %v, want the injected error", err)
						}
					case "panic":
						if err == nil || err.Error() != "panic: injected panic" {
							t.Fatalf("err = %v, want the injected panic", err)
						}
					case "ctx-cancel":
						if !errors.Is(err, stm.ErrCanceled) {
							t.Fatalf("err = %v, want stm.ErrCanceled", err)
						}
					default:
						if err != nil {
							t.Fatal(err)
						}
					}
					if path == "retry-park" {
						if err := <-woken; err != nil {
							t.Fatal(err)
						}
						want++
					}
					if len(dropped) != mutating {
						t.Fatalf("%d mutating attempts, want %d", len(dropped), mutating)
					}
					for _, d := range dropped {
						if *d != (sizeDelta{}) {
							t.Fatalf("released log kept size delta %+v", *d)
						}
					}
					if got := committed.n.Load(); got != want {
						t.Fatalf("committed count %d after the aborted attempt, want %d", got, want)
					}

					// The next transaction starts from a zero delta.
					if err := s.Atomically(func(tx *stm.Txn) error {
						m.Put(tx, 30, 30)
						if d := peek(tx); d == nil || *d != (sizeDelta{n: 1, written: true}) {
							return fmt.Errorf("next transaction's delta %v, want +1 written", d)
						}
						if got := m.Size(tx); int64(got) != want+1 {
							return fmt.Errorf("next transaction: Size = %d, want %d", got, want+1)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if got := committed.n.Load(); got != want+1 {
						t.Fatalf("committed count %d, want %d", got, want+1)
					}
				})
			}
		}
	}
}
