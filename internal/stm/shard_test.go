package stm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// newSharded creates an instance whose timebase has n shards (a power of two
// ≤ MaxShards) instead of AutoShardCount, for tests that need a specific
// layout. Nothing of the instance exists yet that depends on the count.
func newSharded(n int, opts ...Option) *STM {
	s := New(opts...)
	s.setShards(n)
	return s
}

// shardedRefs creates enough refs to span several shards and returns one ref
// per requested shard, by allocating refs until each target shard has one.
func shardedRefs(t *testing.T, s *STM, shards ...uint32) map[uint32]*Ref[int] {
	t.Helper()
	out := make(map[uint32]*Ref[int], len(shards))
	want := make(map[uint32]bool, len(shards))
	for _, sh := range shards {
		want[sh] = true
	}
	for i := 0; i < (len(s.shards)+len(shards))<<shardBlockBits; i++ {
		r := NewRef(s, 0)
		if want[r.b.shard] && out[r.b.shard] == nil {
			out[r.b.shard] = r
			if len(out) == len(shards) {
				return out
			}
		}
	}
	t.Fatalf("could not allocate refs covering shards %v", shards)
	return nil
}

// TestShardAssignment checks the block ref→shard mapping: consecutive ids
// share a shard per 64-id block, a single-shard instance maps everything to
// 0, and a default instance runs AutoShardCount shards.
func TestShardAssignment(t *testing.T) {
	s := newSharded(8)
	var refs []*Ref[int]
	for i := 0; i < 200; i++ {
		refs = append(refs, NewRef(s, i))
	}
	for _, r := range refs {
		want := uint32((r.b.id >> shardBlockBits) & 7)
		if r.b.shard != want {
			t.Fatalf("ref id %d: shard = %d, want %d", r.b.id, r.b.shard, want)
		}
	}

	one := newSharded(1)
	for i := 0; i < 100; i++ {
		if r := NewRef(one, 0); r.b.shard != 0 {
			t.Fatalf("single-shard instance assigned shard %d", r.b.shard)
		}
	}

	if n := New().nShards; n != AutoShardCount() || n < 8 || n&(n-1) != 0 {
		t.Fatalf("default shard count = %d, want AutoShardCount() = %d, a power of two >= 8", n, AutoShardCount())
	}
}

// TestShardVectorMonotonicity drives one transaction through lazy capture,
// extension and the epoch fence, asserting the shard-clock vector only ever
// advances and that cross-shard commits move the epoch the reader fences on.
// All commits happen from nested transactions on the same goroutine (the
// tl2 backend holds no locks while the body runs), so the schedule is
// deterministic.
func TestShardVectorMonotonicity(t *testing.T) {
	s := newSharded(8, WithBackend("tl2"))
	refs := shardedRefs(t, s, 0, 1)
	a0, b0 := refs[0], refs[1]
	mk := func(sh uint32) *Ref[int] { // extra ref in a specific shard
		for {
			r := NewRef(s, 0)
			if r.b.shard == sh {
				return r
			}
		}
	}
	a1, a2, b1 := mk(0), mk(0), mk(1)

	step := 0
	err := s.Atomically(func(tx *Txn) error {
		if tx.Attempt() != 1 {
			t.Fatalf("unexpected retry (attempt %d) in deterministic schedule", tx.Attempt())
		}
		_ = a0.Get(tx)
		if tx.shardSeen != 1 {
			t.Fatalf("after first read: shardSeen = %b, want 1 (lazy capture)", tx.shardSeen)
		}
		rv0 := tx.rvVec[0]

		// A commit into shard 0 (to a ref we have not read) must force an
		// extension on the next shard-0 read, advancing rvVec[0].
		step = 1
		if err := s.Atomically(func(in *Txn) error { a1.Set(in, 7); return nil }); err != nil {
			return err
		}
		if got := a1.Get(tx); got != 7 {
			t.Fatalf("step %d: a1 = %d, want 7", step, got)
		}
		if tx.rvVec[0] <= rv0 {
			t.Fatalf("extension did not advance rvVec[0]: %d -> %d", rv0, tx.rvVec[0])
		}

		// A cross-shard commit (to refs this transaction has NOT read, so
		// the full revalidation it forces passes) bumps the epoch; touching
		// a new shard after it must pass through the fence and land with
		// epochSeen current.
		step = 2
		epochBefore := s.Epoch()
		if err := s.Atomically(func(in *Txn) error {
			a2.Set(in, 8)
			b1.Set(in, 8)
			return nil
		}); err != nil {
			return err
		}
		if s.Epoch() != epochBefore+1 {
			t.Fatalf("cross-shard commit moved epoch %d -> %d, want +1", epochBefore, s.Epoch())
		}
		_ = b0.Get(tx) // first touch of shard 1: fence + capture
		if tx.shardSeen != 0b11 {
			t.Fatalf("shardSeen = %b, want 11", tx.shardSeen)
		}
		if tx.epochSeen != s.Epoch() {
			t.Fatalf("epoch fence did not update epochSeen: %d, epoch %d", tx.epochSeen, s.Epoch())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CrossShardCommits; got != 1 {
		t.Fatalf("CrossShardCommits = %d, want 1", got)
	}
	if skew := s.ShardClockSkew(); skew == 0 {
		t.Fatalf("expected nonzero shard clock skew after uneven commits")
	}
	if len(s.ShardClocks(nil)) != 8 {
		t.Fatalf("ShardClocks length = %d", len(s.ShardClocks(nil)))
	}
}

// TestEpochFenceConsistentCut reproduces the cut the fence exists to forbid:
// a reader captures shard B, a cross-shard commit rewrites one ref in each
// of A and B, and the reader then touches shard A. Without the fence the
// reader's vector would be "before" the commit in B and "after" it in A and
// it would observe a torn (new, old) pair; with the fence the first attempt
// must abort and the retry sees the consistent new values.
func TestEpochFenceConsistentCut(t *testing.T) {
	s := newSharded(8, WithBackend("tl2"))
	refs := shardedRefs(t, s, 0, 1)
	x, y := refs[0], refs[1] // x in shard 0 ("A"), y in shard 1 ("B")
	if err := s.Atomically(func(tx *Txn) error { x.Set(tx, 1); y.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}

	committed := false
	var pairs [][2]int
	err := s.Atomically(func(tx *Txn) error {
		yv := y.Get(tx)
		if !committed {
			committed = true
			if err := s.Atomically(func(in *Txn) error {
				x.Set(in, 2)
				y.Set(in, 2)
				return nil
			}); err != nil {
				return err
			}
		}
		xv := x.Get(tx) // crosses into shard 0: must hit the epoch fence
		pairs = append(pairs, [2]int{xv, yv})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			t.Fatalf("observed torn cross-shard snapshot (x=%d, y=%d); pairs: %v", p[0], p[1], pairs)
		}
	}
	// The fence aborts attempt 1 at the x read — before the body can record
	// its torn pair — so exactly the retry's consistent (new, new) pair is
	// observed.
	if len(pairs) != 1 || pairs[0] != [2]int{2, 2} {
		t.Fatalf("expected fence abort then one consistent retry pair, got %v", pairs)
	}
	if s.Stats().ValidationAborts == 0 {
		t.Fatal("epoch fence did not force a validation abort")
	}
}

// TestSameShardPairConsistency is the reader-side soak for single-shard
// commits: writers on ONE shard (so every commit bumps the same clock) keep
// the invariant x == y, while readers continuously assert it. A writer that
// publishes under a version a reader already adopted as its read version
// would let the reader observe a torn (old x, new y) pair with no validation
// trigger.
func TestSameShardPairConsistency(t *testing.T) {
	for _, backend := range []string{"tl2", "ccstm", "eager"} {
		t.Run(backend, func(t *testing.T) {
			s := newSharded(1, WithBackend(backend))
			x, y := NewRef(s, 0), NewRef(s, 0)
			rounds := 300
			if testing.Short() {
				rounds = 80
			}
			const writers, readers = 4, 4
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var xv, yv int
						if err := s.Atomically(func(tx *Txn) error {
							xv = x.Get(tx)
							yv = y.Get(tx)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
						if xv != yv {
							t.Errorf("torn same-shard pair: x=%d y=%d", xv, yv)
							return
						}
					}
				}()
			}
			var ww sync.WaitGroup
			for w := 0; w < writers; w++ {
				ww.Add(1)
				go func() {
					defer ww.Done()
					for i := 0; i < rounds; i++ {
						if err := s.Atomically(func(tx *Txn) error {
							v := x.Get(tx) + 1
							x.Set(tx, v)
							y.Set(tx, v)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			ww.Wait()
			close(stop)
			wg.Wait()
			if x.Load() != y.Load() {
				t.Fatalf("final pair torn: x=%d y=%d", x.Load(), y.Load())
			}
		})
	}
}

// TestEpochFencePairConsistency is the concurrent counterpart of
// TestEpochFenceConsistentCut: cross-SHARD writers keep x == y (x in shard
// 0, y in shard 1) while readers assert it. The fence is only airtight when
// captures load the shard clock first and the epoch after — the inverted
// order can pair a post-commit clock with a stale-but-equal epoch and admit
// a vector that straddles the commit.
func TestEpochFencePairConsistency(t *testing.T) {
	for _, backend := range []string{"tl2", "ccstm", "eager"} {
		t.Run(backend, func(t *testing.T) {
			s := newSharded(8, WithBackend(backend))
			refs := shardedRefs(t, s, 0, 1)
			x, y := refs[0], refs[1]
			rounds := 300
			if testing.Short() {
				rounds = 80
			}
			const writers, readers = 4, 4
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var xv, yv int
						if err := s.Atomically(func(tx *Txn) error {
							// Alternate capture order so both shards play
							// the "captured early" role.
							if r&1 == 0 {
								xv, yv = x.Get(tx), y.Get(tx)
							} else {
								yv, xv = y.Get(tx), x.Get(tx)
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
						if xv != yv {
							t.Errorf("torn cross-shard pair: x=%d y=%d", xv, yv)
							return
						}
					}
				}(r)
			}
			var ww sync.WaitGroup
			for w := 0; w < writers; w++ {
				ww.Add(1)
				go func() {
					defer ww.Done()
					for i := 0; i < rounds; i++ {
						if err := s.Atomically(func(tx *Txn) error {
							v := x.Get(tx) + 1
							x.Set(tx, v)
							y.Set(tx, v)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			ww.Wait()
			close(stop)
			wg.Wait()
			if x.Load() != y.Load() {
				t.Fatalf("final pair torn: x=%d y=%d", x.Load(), y.Load())
			}
		})
	}
}

// TestSameShardDisjointWriters hammers one shard with disjoint writers and
// checks every committed value survived — commits racing on one clock must
// never lose or cross publications.
func TestSameShardDisjointWriters(t *testing.T) {
	for _, backend := range []string{"tl2", "ccstm", "eager"} {
		t.Run(backend, func(t *testing.T) {
			s := newSharded(1, WithBackend(backend)) // one shard: every commit shares the clock
			const workers, rounds = 8, 200
			refs := make([]*Ref[int], workers)
			for i := range refs {
				refs[i] = NewRef(s, 0)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := s.Atomically(func(tx *Txn) error {
							refs[w].Set(tx, refs[w].Get(tx)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w, r := range refs {
				if got := r.Load(); got != rounds {
					t.Fatalf("worker %d counter = %d, want %d", w, got, rounds)
				}
			}
		})
	}
}

// TestBankConservationZipfShards runs the bank-conservation invariant under
// a zipf-skewed account distribution spanning many shards, across all four
// backends and their chaos wrappers: concurrent transfers (most cross-shard)
// must never create or destroy money, observed by concurrent full-sum
// readers and by a final audit.
func TestBankConservationZipfShards(t *testing.T) {
	const (
		accounts = 256
		initial  = 100
	)
	transfers := 400
	if testing.Short() {
		transfers = 120
	}
	for _, bf := range Backends() {
		if bf.Fault {
			continue
		}
		for _, chaos := range []bool{false, true} {
			name := bf.Name
			opts := []Option{WithBackend(bf.Name)}
			if chaos {
				name += "-chaos"
				opts = append(opts, WithChaos(DefaultChaosConfig()))
			}
			t.Run(name, func(t *testing.T) {
				s := newSharded(8, opts...)
				refs := make([]*Ref[int], accounts)
				for i := range refs {
					refs[i] = NewRef(s, initial)
				}

				const workers = 4
				var wg sync.WaitGroup
				stop := make(chan struct{})
				auditorDone := make(chan struct{})
				// Concurrent auditor: every consistent snapshot must
				// conserve. Deliberately outside the workers' WaitGroup — it
				// exits only after they finish and stop closes.
				go func() {
					defer close(auditorDone)
					for {
						select {
						case <-stop:
							return
						default:
						}
						total, err := AtomicallyResult(s, func(tx *Txn) (int, error) {
							sum := 0
							for _, r := range refs {
								sum += r.Get(tx)
							}
							return sum, nil
						})
						if err != nil {
							t.Error(err)
							return
						}
						if total != accounts*initial {
							t.Errorf("auditor saw total %d, want %d", total, accounts*initial)
							return
						}
					}
				}()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w) + 1))
						zipf := rand.NewZipf(rng, 1.2, 1, accounts-1)
						for i := 0; i < transfers; i++ {
							from := int(zipf.Uint64())
							to := int(zipf.Uint64())
							if from == to {
								to = (to + 1) % accounts
							}
							amount := 1 + rng.Intn(5)
							if err := s.Atomically(func(tx *Txn) error {
								f := refs[from].Get(tx)
								if f < amount {
									return nil
								}
								refs[from].Set(tx, f-amount)
								refs[to].Set(tx, refs[to].Get(tx)+amount)
								return nil
							}); err != nil {
								t.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(stop)
				<-auditorDone

				total := 0
				for _, r := range refs {
					total += r.Load()
				}
				if total != accounts*initial {
					t.Fatalf("final total %d, want %d", total, accounts*initial)
				}
			})
		}
	}
}

// TestShardStatsSnapshot checks the new counters survive the snapshot/reset
// round trip.
func TestShardStatsSnapshot(t *testing.T) {
	s := newSharded(8)
	refs := shardedRefs(t, s, 0, 1)
	if err := s.Atomically(func(tx *Txn) error {
		refs[0].Set(tx, 1)
		refs[1].Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CrossShardCommits; got != 1 {
		t.Fatalf("CrossShardCommits = %d, want 1", got)
	}
	s.ResetStats()
	st := s.Stats()
	if st.CrossShardCommits != 0 {
		t.Fatalf("reset left shard counters: %+v", st)
	}
}

// TestSerialCrossShardPairConsistency pits escalated cross-shard writers
// against optimistic readers. Writers yield between reading x and writing
// the pair, so they invalidate each other and WithEscalation(1) re-runs the
// losers holding the exclusive token; their commits bump the epoch and two
// shard clocks while readers assert x == y throughout. Nothing but the
// escalation token and the epoch fence keeps a reader's vector from
// straddling a serial commit.
func TestSerialCrossShardPairConsistency(t *testing.T) {
	for _, backend := range []string{"tl2", "ccstm", "eager"} {
		t.Run(backend, func(t *testing.T) {
			s := newSharded(8, WithBackend(backend), WithEscalation(1))
			refs := shardedRefs(t, s, 0, 1)
			x, y := refs[0], refs[1]
			rounds := 2000
			if testing.Short() {
				rounds = 500
			}
			const writers, readers = 4, 4
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var xv, yv int
						if err := s.Atomically(func(tx *Txn) error {
							if r&1 == 0 {
								xv, yv = x.Get(tx), y.Get(tx)
							} else {
								yv, xv = y.Get(tx), x.Get(tx)
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
						if xv != yv {
							t.Errorf("torn pair across a serial commit: x=%d y=%d", xv, yv)
							return
						}
						// Writers yield mid-transaction; without a yield here a
						// single P would give each of them one turn per reader
						// time slice.
						runtime.Gosched()
					}
				}(r)
			}
			var serialWrites atomic.Int64
			var ww sync.WaitGroup
			for w := 0; w < writers; w++ {
				ww.Add(1)
				go func() {
					defer ww.Done()
					for i := 0; i < rounds; i++ {
						var serial bool
						if err := s.Atomically(func(tx *Txn) error {
							serial = tx.Serialized()
							v := x.Get(tx) + 1
							runtime.Gosched()
							x.Set(tx, v)
							y.Set(tx, v)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
						if serial {
							serialWrites.Add(1)
						}
					}
				}()
			}
			ww.Wait()
			close(stop)
			wg.Wait()
			if want := writers * rounds; x.Load() != want || y.Load() != want {
				t.Fatalf("final pair: x=%d y=%d, want both %d", x.Load(), y.Load(), want)
			}
			if serialWrites.Load() == 0 {
				t.Fatal("no writer committed in serial mode: the escalated path was not exercised")
			}
		})
	}
}

// TestZipfSkewConcentratesShards sanity-checks the motivating skew story:
// zipf-selected writes against block-sharded refs leave most shards quiet.
func TestZipfSkewConcentratesShards(t *testing.T) {
	s := newSharded(8, WithBackend("tl2"))
	const keys = 1024
	refs := make([]*Ref[int], keys)
	for i := range refs {
		refs[i] = NewRef(s, 0)
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1, keys-1)
	for i := 0; i < 2000; i++ {
		k := zipf.Uint64()
		if err := s.Atomically(func(tx *Txn) error {
			refs[k].Set(tx, refs[k].Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	clocks := s.ShardClocks(nil)
	var max uint64
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	if max < s.ShardClockSkew() {
		t.Fatalf("skew %d exceeds max clock %d", s.ShardClockSkew(), max)
	}
	if s.ShardClockSkew()*2 < max {
		t.Fatalf("expected strong skew under zipf keys: clocks %v", clocks)
	}
}

// TestShardVectorPoolHygiene is the pool-poisoning round for the inline
// shard vector: after heavy reuse across shard-spanning transactions, a
// descriptor drawn from the pool must carry no captured shard state.
func TestShardVectorPoolHygiene(t *testing.T) {
	s := newSharded(8, WithBackend("tl2"))
	refs := shardedRefs(t, s, 0, 1, 2, 3)
	for i := 0; i < 64; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			for _, r := range refs {
				r.Set(tx, r.Get(tx)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.newTxn()
	defer s.releaseTxn(tx)
	if tx.shardSeen != 0 || tx.epochSeen != 0 {
		t.Fatalf("pooled descriptor retains shard state: seen=%b epoch=%d", tx.shardSeen, tx.epochSeen)
	}
	if len(tx.rvVec) != s.nShards {
		t.Fatalf("rvVec sized %d, want %d", len(tx.rvVec), s.nShards)
	}
	for i, v := range tx.rvVec {
		if v != 0 {
			t.Fatalf("rvVec[%d] = %d after release, want 0", i, v)
		}
	}
}
