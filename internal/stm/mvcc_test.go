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
	s := New(WithBackend("mvcc"), WithVersionCap(4))
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

// TestMVCCChaosSoakZeroReadOnlyAborts: under chaos-mvcc with every fault
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
			s := newSharded(shards, WithBackend("chaos-mvcc"), WithEscalation(5), WithChaos(cc))
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
// the next writer trims the backlog back under the cap.
func TestMVCCWatermarkGCShrink(t *testing.T) {
	const cap = 4
	s := newSharded(1, WithBackend("mvcc"), WithVersionCap(cap))
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
	// The reader is gone; subsequent appends rescan the watermark (eagerly at
	// the cap) and trim the backlog.
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
	if tel.VersionsLive > cap+1 {
		t.Fatalf("VersionsLive = %d after reader exit, want <= %d (backlog not trimmed)", tel.VersionsLive, cap+1)
	}
}

// TestMVCCVersionGCGate is the CI memory gate: sustained update churn with no
// snapshot readers must keep live history bounded near refs × cap — version
// chains must not grow with the commit count.
func TestMVCCVersionGCGate(t *testing.T) {
	const refsN = 16
	s := New(WithBackend("mvcc"))
	refs := make([]*Ref[int], refsN)
	for i := range refs {
		refs[i] = NewRef(s, 0)
	}
	const rounds = 500
	for i := 0; i < rounds; i++ {
		for _, r := range refs {
			if err := s.Atomically(func(tx *Txn) error {
				r.Set(tx, r.Get(tx)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tel, ok := s.MVCCTelemetry()
	if !ok {
		t.Fatal("MVCCTelemetry not available on the mvcc backend")
	}
	// Each chain is trimmed to the first node at or below the watermark, so a
	// chain may hold cap nodes plus the boundary node.
	limit := int64(refsN * (DefaultVersionCap + 1))
	if tel.VersionsLive > limit {
		t.Fatalf("VersionsLive = %d after %d commits, want <= %d (history leak)", tel.VersionsLive, rounds*refsN, limit)
	}
	st := s.Stats()
	if st.MVCCVersionsAppended == 0 || st.MVCCVersionsReclaimed == 0 {
		t.Fatalf("version accounting inert: appended=%d reclaimed=%d", st.MVCCVersionsAppended, st.MVCCVersionsReclaimed)
	}
	if live := int64(st.MVCCVersionsAppended) - int64(st.MVCCVersionsReclaimed); live != tel.VersionsLive {
		t.Fatalf("VersionsLive gauge %d disagrees with appended-reclaimed %d", tel.VersionsLive, live)
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
// backend (selectable, non-fault, sorted enumeration), and chaos-mvcc wraps
// it with the Fault flag.
func TestMVCCRegistrySweep(t *testing.T) {
	bf, ok := BackendByName("mvcc")
	if !ok {
		t.Fatal("mvcc not registered")
	}
	if bf.Fault {
		t.Fatal("mvcc wrongly marked Fault")
	}
	if bf.Policy != MultiVersion {
		t.Fatalf("mvcc policy = %v, want MultiVersion", bf.Policy)
	}
	cf, ok := BackendByName("chaos-mvcc")
	if !ok {
		t.Fatal("chaos-mvcc not registered")
	}
	if !cf.Fault || cf.Policy != MultiVersion {
		t.Fatalf("chaos-mvcc: Fault=%v policy=%v, want Fault=true MultiVersion", cf.Fault, cf.Policy)
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
	if _, ok := New(WithBackend("chaos-mvcc")).MVCCTelemetry(); !ok {
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
	released := func() int {
		b.slotMu.Lock()
		defer b.slotMu.Unlock()
		return len(b.free)
	}
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
		for wait := 0; wait < 100 && released() == 0; wait++ {
			time.Sleep(time.Millisecond)
		}
	}
	if n := len(*b.slots.Load()); n > 16 {
		t.Fatalf("%d watermark slots after %d rounds of descriptor churn: collected readers' slots are not reused", n, rounds)
	}
}
