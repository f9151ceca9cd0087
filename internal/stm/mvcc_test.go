package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proust/internal/conc"
)

// TestMVCCSnapshotBasics: snapshot transactions see committed state, the
// declared-read-only plumbing reaches the backend, and the snapshot counters
// account for the reads.
func TestMVCCSnapshotBasics(t *testing.T) {
	s := New(WithBackend("mvcc"))
	x := NewRef(s, 10)
	y := NewRef(s, 20)

	roCtx := WithReadOnly(nil)
	var gx, gy int
	if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
		if !tx.ReadOnly() {
			t.Error("WithReadOnly hint did not reach the transaction")
		}
		gx, gy = x.Get(tx), y.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gx != 10 || gy != 20 {
		t.Fatalf("snapshot read (%d,%d), want (10,20)", gx, gy)
	}

	// Update transactions still commit and are visible to later snapshots.
	if err := s.Atomically(func(tx *Txn) error {
		x.Set(tx, x.Get(tx)+1)
		y.Set(tx, y.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
		gx, gy = x.Get(tx), y.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gx != 11 || gy != 21 {
		t.Fatalf("snapshot after update read (%d,%d), want (11,21)", gx, gy)
	}

	st := s.Stats()
	if st.MVCCSnapshotTxns != 2 {
		t.Fatalf("MVCCSnapshotTxns = %d, want 2", st.MVCCSnapshotTxns)
	}
	if st.MVCCSnapshotReads != 4 {
		t.Fatalf("MVCCSnapshotReads = %d, want 4", st.MVCCSnapshotReads)
	}
}

// TestMVCCReadOnlyWritePanics: a write inside a declared read-only body is a
// contract violation and must surface as a panic, not silent misbehavior.
func TestMVCCReadOnlyWritePanics(t *testing.T) {
	s := New(WithBackend("mvcc"))
	r := NewRef(s, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("write inside a WithReadOnly transaction did not panic")
		}
	}()
	_ = s.AtomicallyCtx(WithReadOnly(nil), func(tx *Txn) error {
		r.Set(tx, 1)
		return nil
	})
}

// TestMVCCSnapshotPairConsistency is the snapshot edition of
// TestEpochFencePairConsistency: cross-shard writers keep x == y (x in shard
// 0, y in shard 1) while read-only snapshot transactions assert the pair —
// and, unlike validating readers, must do so on their first and only attempt.
// A torn pair here means the snapshot vector straddled a cross-shard commit;
// an attempt > 1 means a "no validation, no aborts" read path aborted.
func TestMVCCSnapshotPairConsistency(t *testing.T) {
	s := newSharded(8, WithBackend("mvcc"))
	refs := shardedRefs(t, s, 0, 1)
	x, y := refs[0], refs[1]
	rounds := 300
	if testing.Short() {
		rounds = 80
	}
	const writers, readers = 4, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	roCtx := WithReadOnly(nil)
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
				if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
					if tx.Attempt() != 1 {
						t.Errorf("snapshot transaction reached attempt %d", tx.Attempt())
					}
					// Alternate capture order so both shards play the
					// "captured early" role.
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
					t.Errorf("torn cross-shard snapshot pair: x=%d y=%d", xv, yv)
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
	st := s.Stats()
	if st.MVCCSnapshotTxns == 0 {
		t.Fatal("no snapshot transactions ran; the test exercised nothing")
	}
}

// TestMVCCSnapshotStability: a snapshot transaction re-reading a ref mid-churn
// sees its begin-time value even after later commits have displaced it into
// the history chain — the version walk, not the current value, serves it.
func TestMVCCSnapshotStability(t *testing.T) {
	s := New(WithBackend("mvcc"))
	s.versionCap = 4
	r := NewRef(s, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.AtomicallyCtx(WithReadOnly(nil), func(tx *Txn) error {
			first := r.Get(tx)
			close(started)
			<-release
			if again := r.Get(tx); again != first {
				t.Errorf("snapshot drifted: first read %d, re-read %d", first, again)
			}
			return nil
		})
	}()
	<-started
	for i := 1; i <= 50; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := r.Load(); got != 50 {
		t.Fatalf("final value = %d, want 50", got)
	}
	if st := s.Stats(); st.MVCCHistoryReads == 0 {
		t.Fatal("re-read was never served from the history chain")
	}
}

// TestMVCCChaosSoakZeroReadOnlyAborts: under the chaos-wrapped mvcc with every fault
// class enabled, read-only snapshot transactions must never abort — chaos
// read/commit faults exempt them, and the read path has no abort cause of
// its own. Update transactions absorb the injected faults and still count
// correctly.
func TestMVCCChaosSoakZeroReadOnlyAborts(t *testing.T) {
	mixes := []ChaosConfig{
		{Seed: 0xC0FFEE, AbortEvery: 4, DoomEvery: 4},
		{Seed: 0xBEEF, AbortEvery: 8, DelayEvery: 16, CommitDelay: 50 * time.Microsecond, DoomEvery: 8},
		{Seed: 7, DoomEvery: 2},
	}
	for mi, cc := range mixes {
		for _, shards := range []int{1, 8} {
			s := newSharded(shards, WithBackend("mvcc"), WithEscalation(5), WithChaos(cc))
			const goroutines, txnsPerG, refsN = 8, 100, 4
			refs := make([]*Ref[int], refsN)
			for i := range refs {
				refs[i] = NewRef(s, 0)
			}
			var roAttempts atomic.Int64
			roCtx := WithReadOnly(nil)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < txnsPerG; i++ {
						if i%2 == 0 {
							if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
								if a := int64(tx.Attempt()); a > roAttempts.Load() {
									roAttempts.Store(a)
								}
								for _, r := range refs {
									_ = r.Get(tx)
								}
								return nil
							}); err != nil {
								t.Errorf("mix %d shards %d: read-only txn: %v", mi, shards, err)
								return
							}
							continue
						}
						if err := s.Atomically(func(tx *Txn) error {
							r := refs[(id+i)%refsN]
							r.Set(tx, r.Get(tx)+1)
							return nil
						}); err != nil {
							t.Errorf("mix %d shards %d: update txn: %v", mi, shards, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if got := roAttempts.Load(); got > 1 {
				t.Fatalf("mix %d shards %d: a read-only transaction reached attempt %d; snapshot reads must never abort", mi, shards, got)
			}
			total := 0
			for _, r := range refs {
				total += r.Load()
			}
			if want := goroutines * txnsPerG / 2; total != want {
				t.Fatalf("mix %d shards %d: sum = %d, want %d (lost or duplicated increments)", mi, shards, total, want)
			}
			st := s.Stats()
			if st.ChaosAborts == 0 {
				t.Fatalf("mix %d shards %d: soak injected no faults; chaos config inert", mi, shards)
			}
		}
	}
}

// TestMVCCWatermarkGCShrink: an active snapshot pins history past the version
// cap (the soft budget yields, counting the overflow); once the reader exits,
// the next writer retires the whole backlog.
func TestMVCCWatermarkGCShrink(t *testing.T) {
	const cap = 4
	s := newSharded(1, WithBackend("mvcc"))
	s.versionCap = cap
	r := NewRef(s, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.AtomicallyCtx(WithReadOnly(nil), func(tx *Txn) error {
			_ = r.Get(tx)
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	const commits = 3 * mvccWMRescanEvery
	for i := 1; i <= commits; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tel, ok := s.MVCCTelemetry()
	if !ok {
		t.Fatal("MVCCTelemetry not available on the mvcc backend")
	}
	if tel.ActiveSnapshots != 1 {
		t.Fatalf("ActiveSnapshots = %d, want 1", tel.ActiveSnapshots)
	}
	if tel.VersionsLive <= cap {
		t.Fatalf("VersionsLive = %d with a pinned snapshot, want > cap %d (watermark must override the budget)", tel.VersionsLive, cap)
	}
	if st := s.Stats(); st.MVCCCapOverflows == 0 {
		t.Fatal("cap overflow never counted while the watermark pinned the chain")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The reader is gone; the next commit finds no reader registered and
	// retires the whole backlog instead of appending.
	for i := 0; i < 4; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, commits+1+i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tel, _ = s.MVCCTelemetry()
	if tel.ActiveSnapshots != 0 {
		t.Fatalf("ActiveSnapshots = %d after release, want 0", tel.ActiveSnapshots)
	}
	if tel.VersionsLive != 0 {
		t.Fatalf("VersionsLive = %d after reader exit, want 0 (backlog not retired)", tel.VersionsLive)
	}
}

// TestMVCCVersionGCGate is the CI memory gate: sustained update churn beside
// a goroutine of short snapshot transactions (so commits both append and
// trim) must keep live history bounded near refs × cap — version chains must
// not grow with the commit count — and once no reader is left, one commit per
// ref must leave no history at all.
//
// The leak bound is checked after one commit per ref under a reader parked at
// the end of the churn: a churn reader preempted inside its body can pin any
// amount of history for as long as it is descheduled, but the parked reader's
// floor is the current clock, so each of those commits must trim its chain
// back to at most cap nodes whatever the churn left. One shard makes the
// floor the ref's own clock.
func TestMVCCVersionGCGate(t *testing.T) {
	const refsN = 16
	s := newSharded(1, WithBackend("mvcc"))
	refs := make([]*Ref[int], refsN)
	for i := range refs {
		refs[i] = NewRef(s, 0)
	}
	roCtx := WithReadOnly(nil)
	bump := func(r *Ref[int]) {
		t.Helper()
		if err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, r.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
				_ = refs[i%refsN].Get(tx)
				runtime.Gosched() // stay registered while the writer runs
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const rounds = 500
	for i := 0; i < rounds; i++ {
		for _, r := range refs {
			bump(r)
		}
		runtime.Gosched() // let the reader in on one core
	}
	close(stop)
	<-readerDone
	if st := s.Stats(); st.MVCCVersionsAppended == 0 || st.MVCCVersionsReclaimed == 0 {
		t.Fatalf("churn beside readers did not both append and reclaim: appended=%d reclaimed=%d", st.MVCCVersionsAppended, st.MVCCVersionsReclaimed)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	parked := make(chan error, 1)
	go func() {
		parked <- s.AtomicallyCtx(roCtx, func(tx *Txn) error {
			_ = refs[0].Get(tx)
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	for _, r := range refs {
		bump(r)
	}
	tel, ok := s.MVCCTelemetry()
	if !ok {
		t.Fatal("MVCCTelemetry not available on the mvcc backend")
	}
	// Each chain is trimmed to the first node at or below the watermark, so a
	// chain may hold cap nodes plus the boundary node.
	limit := int64(refsN * (DefaultVersionCap + 1))
	if tel.VersionsLive > limit {
		t.Fatalf("VersionsLive = %d after %d commits, want <= %d (history leak)", tel.VersionsLive, (rounds+1)*refsN, limit)
	}
	st := s.Stats()
	if live := int64(st.MVCCVersionsAppended) - int64(st.MVCCVersionsReclaimed); live != tel.VersionsLive {
		t.Fatalf("VersionsLive gauge %d disagrees with appended-reclaimed %d", tel.VersionsLive, live)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}

	for _, r := range refs {
		bump(r)
	}
	tel, _ = s.MVCCTelemetry()
	if tel.VersionsLive != 0 {
		t.Fatalf("VersionsLive = %d after a commit per ref with no reader, want 0", tel.VersionsLive)
	}
	st = s.Stats()
	if st.MVCCVersionsAppended == 0 || st.MVCCVersionsReclaimed == 0 {
		t.Fatalf("version accounting inert: appended=%d reclaimed=%d", st.MVCCVersionsAppended, st.MVCCVersionsReclaimed)
	}
	if live := int64(st.MVCCVersionsAppended) - int64(st.MVCCVersionsReclaimed); live != tel.VersionsLive {
		t.Fatalf("VersionsLive gauge %d disagrees with appended-reclaimed %d", tel.VersionsLive, live)
	}
}

// TestMVCCIdleCommitKeepsNoHistory: a commit that finds no snapshot reader
// registered publishes with no history — it appends nothing and retires
// whatever chain a reader left behind — and a later snapshot still reads the
// latest values.
func TestMVCCIdleCommitKeepsNoHistory(t *testing.T) {
	s := New(WithBackend("mvcc"))
	x, y := NewRef(s, 0), NewRef(s, 0)
	roCtx := WithReadOnly(nil)
	set := func(v int) {
		t.Helper()
		if err := s.Atomically(func(tx *Txn) error {
			x.Set(tx, v)
			y.Set(tx, -v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= 10; v++ {
		set(v)
	}
	tel, _ := s.MVCCTelemetry()
	if st := s.Stats(); tel.VersionsLive != 0 || st.MVCCVersionsAppended != 0 {
		t.Fatalf("idle commits kept history: VersionsLive = %d, appended = %d", tel.VersionsLive, st.MVCCVersionsAppended)
	}

	// A parked reader makes commits append; the first commit after it leaves
	// retires the chains it pinned.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.AtomicallyCtx(roCtx, func(tx *Txn) error {
			_ = x.Get(tx)
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	for v := 11; v <= 15; v++ {
		set(v)
	}
	if tel, _ = s.MVCCTelemetry(); tel.VersionsLive == 0 {
		t.Fatal("commits under a registered reader kept no history")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	set(16)
	tel, _ = s.MVCCTelemetry()
	st := s.Stats()
	if tel.VersionsLive != 0 {
		t.Fatalf("VersionsLive = %d after an idle commit, want 0", tel.VersionsLive)
	}
	if st.MVCCVersionsAppended != st.MVCCVersionsReclaimed {
		t.Fatalf("appended %d != reclaimed %d with nothing live", st.MVCCVersionsAppended, st.MVCCVersionsReclaimed)
	}
	var gx, gy int
	if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
		gx, gy = x.Get(tx), y.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gx != 16 || gy != -16 {
		t.Fatalf("snapshot after idle commits read (%d,%d), want (16,-16)", gx, gy)
	}
}

// TestMVCCReaderBeforeWindowKeepsDisplacedVersion: a snapshot registered
// before commits open their publication windows still reads its values after
// they have all been displaced — so every one of those commits appended.
func TestMVCCReaderBeforeWindowKeepsDisplacedVersion(t *testing.T) {
	const refsN, commits = 4, 20
	s := New(WithBackend("mvcc"))
	refs := make([]*Ref[int], refsN)
	for i := range refs {
		refs[i] = NewRef(s, 100+i)
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.AtomicallyCtx(WithReadOnly(nil), func(tx *Txn) error {
			close(started)
			<-release
			for i, r := range refs {
				if got := r.Get(tx); got != 100+i {
					t.Errorf("ref %d: snapshot read %d, want %d", i, got, 100+i)
				}
			}
			return nil
		})
	}()
	<-started
	for c := 1; c <= commits; c++ {
		if err := s.Atomically(func(tx *Txn) error {
			for _, r := range refs {
				r.Set(tx, -c)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MVCCVersionsAppended != refsN*commits {
		t.Fatalf("MVCCVersionsAppended = %d, want %d (every commit under the reader appends)", st.MVCCVersionsAppended, refsN*commits)
	}
	if st.MVCCHistoryReads != refsN {
		t.Fatalf("MVCCHistoryReads = %d, want %d", st.MVCCHistoryReads, refsN)
	}
}

// TestMVCCSentinelSlotCountsAsReader: a reader whose slot holds the
// pre-capture sentinel has (or may have) captured its vector without having
// published its floor yet; a commit that sees only the sentinel must still
// append. The body rewinds its own slot to the sentinel to stand in for that
// moment of begin.
func TestMVCCSentinelSlotCountsAsReader(t *testing.T) {
	s := New(WithBackend("mvcc"))
	r := NewRef(s, 1)
	if err := s.AtomicallyCtx(WithReadOnly(nil), func(tx *Txn) error {
		tx.mvccRO.slot.snap.Store(1)
		done := make(chan error, 1)
		go func() {
			done <- s.Atomically(func(wtx *Txn) error {
				r.Set(wtx, 2)
				return nil
			})
		}()
		if err := <-done; err != nil {
			return err
		}
		if r.b.hist.Load() == nil {
			t.Error("a commit that saw a sentinel slot published with no history")
			return nil // the read below would wait forever
		}
		if got := r.Get(tx); got != 1 {
			t.Errorf("snapshot read %d, want 1", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCBeginVsPublishSoak starts batches of short snapshot readers while
// writers commit x == y pairs across two shards, so reader begins race
// commits that decide, once their windows are open, whether anyone needs the
// versions they displace. A wrong decision strands a reader on a version no
// chain holds (its read never returns); a torn pair means a broken snapshot.
func TestMVCCBeginVsPublishSoak(t *testing.T) {
	s := newSharded(8, WithBackend("mvcc"))
	refs := shardedRefs(t, s, 0, 1)
	x, y := refs[0], refs[1]
	rounds := 3000
	if testing.Short() {
		rounds = 600
	}
	const writers, batch = 2, 4
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
				runtime.Gosched()
			}
		}()
	}
	stop := make(chan struct{})
	go func() { ww.Wait(); close(stop) }()

	roCtx := WithReadOnly(nil)
	for {
		select {
		case <-stop:
		default:
			var rw sync.WaitGroup
			for i := 0; i < batch; i++ {
				rw.Add(1)
				go func() {
					defer rw.Done()
					var xv, yv int
					if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
						xv = x.Get(tx)
						runtime.Gosched()
						yv = y.Get(tx)
						return nil
					}); err != nil {
						t.Error(err)
					}
					if xv != yv {
						t.Errorf("torn snapshot pair: x=%d y=%d", xv, yv)
					}
				}()
			}
			finished := make(chan struct{})
			go func() { rw.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("a snapshot read did not return: a version it needed was not kept")
			}
			continue
		}
		break
	}
	if got, want := x.Load(), writers*rounds; got != want || y.Load() != want {
		t.Fatalf("final pair (%d,%d), want (%d,%d)", got, y.Load(), want, want)
	}
	st := s.Stats()
	if st.MVCCSnapshotTxns == 0 {
		t.Fatal("no snapshot transactions ran; the soak exercised nothing")
	}
	if writes := uint64(2 * writers * rounds); st.MVCCVersionsAppended == 0 || st.MVCCVersionsAppended >= writes {
		t.Fatalf("appended %d of %d displaced versions: the soak must run commits both with and without a reader registered", st.MVCCVersionsAppended, writes)
	}
}

// TestMVCCVersionNodePoolPoisoning: a version node that cycles through
// retirement and the grace period must come back from the freelist with every
// field cleared (mvccResetNode) — freelist residency must not pin displaced
// boxes or downstream chain nodes, and no stale version stamp may leak into a
// recycled node.
func TestMVCCVersionNodePoolPoisoning(t *testing.T) {
	pool := conc.NewEpochPool(256, mvccResetNode)
	h := pool.Get()

	junk := &mvccVerNode{ver: 0xBAD}
	poisoned := make(map[*mvccVerNode]bool)
	h.Pin()
	for i := 0; i < 64; i++ {
		n := h.Alloc()
		n.ver = 0xdeadbeef + uint64(i)
		n.val = &box{v: i}
		n.next.Store(junk)
		poisoned[n] = true
		h.Retire(n)
	}
	h.Unpin()
	// Age the bins out: every 32nd Pin volunteers to advance the epoch and
	// drain expired bins; a pinned-at-current-epoch participant does not block
	// advancement.
	for i := 0; i < 32*3*(3+1); i++ {
		h.Pin()
		h.Unpin()
	}

	recycled := 0
	for i := 0; i < 128; i++ {
		n := h.Alloc()
		if poisoned[n] {
			recycled++
			if n.ver != 0 || n.val != nil || n.next.Load() != nil {
				t.Fatalf("recycled version node not fresh: ver=%#x val=%v next=%v", n.ver, n.val, n.next.Load())
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no poisoned version node came back through the allocator; the test exercised nothing")
	}
}

// TestMVCCRegistrySweep: mvcc participates in the registry like any other
// backend (selectable, sorted enumeration), and the chaos wrapper composed
// over it keeps its policy and its telemetry.
func TestMVCCRegistrySweep(t *testing.T) {
	bf, ok := BackendByName("mvcc")
	if !ok {
		t.Fatal("mvcc not registered")
	}
	if bf.Policy != MultiVersion {
		t.Fatalf("mvcc policy = %v, want MultiVersion", bf.Policy)
	}
	chaos := New(WithBackend("mvcc"), WithChaos(DefaultChaosConfig()))
	if got := chaos.Backend(); got.Name() != "chaos-mvcc" || got.Policy() != MultiVersion {
		t.Fatalf("chaos-wrapped mvcc: Name=%q Policy=%v, want chaos-mvcc MultiVersion", got.Name(), got.Policy())
	}
	names := BackendNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("BackendNames not sorted: %v", names)
		}
	}
	// MVCCTelemetry is mvcc-only.
	if _, ok := New(WithBackend("tl2")).MVCCTelemetry(); ok {
		t.Fatal("MVCCTelemetry reported ok on tl2")
	}
	if _, ok := chaos.MVCCTelemetry(); !ok {
		t.Fatal("MVCCTelemetry not available through the chaos wrapper")
	}
}

// TestMVCCSnapshotCausalChain drives a causal chain through two single-shard
// commits — a writer bumps x (shard A); a relay reads x and copies it into y
// (shard B) — while snapshot readers assert y ≤ x. A snapshot admitting the
// relay's commit without the x-commit it read from would show the effect
// without its cause; the publication-window fence in captureSnapshotVector
// exists precisely so a begin-time sweep cannot straddle such a chain. The
// cross-shard epoch fence never trips here: every commit in this test writes
// exactly one shard.
func TestMVCCSnapshotCausalChain(t *testing.T) {
	s := newSharded(8, WithBackend("mvcc"))
	refs := shardedRefs(t, s, 0, 1)
	x, y := refs[0], refs[1]

	rounds := 4000
	if testing.Short() {
		rounds = 800
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: x = 1, 2, 3, ...
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= rounds; i++ {
			if err := s.Atomically(func(tx *Txn) error {
				x.Set(tx, i)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // relay: y = x — reads x's shard, write set confined to y's
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Atomically(func(tx *Txn) error {
				y.Set(tx, x.Get(tx))
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	roCtx := WithReadOnly(nil)
	for r := 0; r < 2; r++ {
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
				if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error {
					yv = y.Get(tx)
					xv = x.Get(tx)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if yv > xv {
					t.Errorf("snapshot saw effect without cause: y=%d > x=%d", yv, xv)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMVCCSlotRegistryBoundedUnderDescriptorChurn lets the descriptor pool
// drop its descriptors — and with them their cached mvcc readers — round
// after round, and checks that the watermark slots of collected readers are
// handed out again instead of piling up in the registry every watermark scan
// walks.
func TestMVCCSlotRegistryBoundedUnderDescriptorChurn(t *testing.T) {
	const rounds = 50
	s := New(WithBackend("mvcc"))
	b := s.backend.(*mvccBackend)
	r := NewRef(s, 0)
	roCtx := WithReadOnly(nil)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ {
			if err := s.AtomicallyCtx(roCtx, func(tx *Txn) error { _ = r.Get(tx); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := s.Atomically(func(tx *Txn) error { r.Set(tx, r.Get(tx)+1); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC() // the pool's descriptors move to its victim cache
		runtime.GC() // and are dropped
		// Cleanups run on their own goroutine once the collection is done.
		for wait := 0; wait < 100 && b.slots.Free() == 0; wait++ {
			time.Sleep(time.Millisecond)
		}
	}
	if n := len(b.slots.Slots()); n > 16 {
		t.Fatalf("%d watermark slots after %d rounds of descriptor churn: collected readers' slots are not reused", n, rounds)
	}
}
