package core

import (
	"errors"
	"time"

	"proust/internal/lock"
	"proust/internal/stm"
)

// LockAllocatorPolicy (LAP) allocates concurrency-control primitives for
// conflict-abstraction intents (paper Section 2). A pessimistic LAP
// allocates re-entrant read-write locks; an optimistic LAP maps intents to
// reads and writes of STM memory locations, letting the STM detect and
// manage the conflicts.
//
// An ADT wrapper brackets every base operation with the two hooks, one
// intent at a time (paper Listing 1): PreOp before the base access, PostOp
// after it and after the operation's undo record is logged. Both abort the
// transaction (unwinding to Atomically for a retry) rather than returning
// errors.
type LockAllocatorPolicy[K comparable] interface {
	PreOp(tx *stm.Txn, in Intent[K])
	PostOp(tx *stm.Txn, in Intent[K])
}

// DefaultMemSize is the default number of STM locations in an optimistic
// LAP — the parameter M of the paper's conflict-abstraction array mem.
const DefaultMemSize = 1024

// OptimisticLAP maps abstract keys onto an array mem[0..M) of STM-managed
// locations: a read intent on key k becomes an STM read of mem[h(k) mod M],
// a write intent becomes an STM write of the conflict-abstraction token
// (stm.SetSerialToken: the paper writes unique values, and the STM's
// per-commit versions make one shared token do). Conflicting intents
// therefore become conflicting STM accesses, detected and resolved
// by whatever detection policy the STM runs (predication-style conflict
// abstraction, generalized beyond sets and maps).
type OptimisticLAP[K comparable] struct {
	hash func(K) uint64
	mem  []*stm.Ref[uint64]
}

var _ LockAllocatorPolicy[int] = (*OptimisticLAP[int])(nil)

// NewOptimisticLAP creates an optimistic LAP with m STM locations (m is
// rounded up to a power of two; m <= 0 selects DefaultMemSize).
func NewOptimisticLAP[K comparable](s *stm.STM, hash func(K) uint64, m int) *OptimisticLAP[K] {
	if m <= 0 {
		m = DefaultMemSize
	}
	size := 1
	for size < m {
		size <<= 1
	}
	mem := make([]*stm.Ref[uint64], size)
	for i := range mem {
		mem[i] = stm.NewRef(s, uint64(0))
	}
	return &OptimisticLAP[K]{hash: hash, mem: mem}
}

// MemSize returns the number of STM locations (M).
func (l *OptimisticLAP[K]) MemSize() int { return len(l.mem) }

func (l *OptimisticLAP[K]) loc(k K) *stm.Ref[uint64] {
	return l.mem[l.hash(k)&uint64(len(l.mem)-1)]
}

// PreOp announces one intent: a read for a read intent, a token write for
// a write intent. Write intents additionally Touch the location,
// recording a *leading* read-set entry: any transaction that later commits a
// conflicting operation invalidates this one at validation time, even if no
// subsequent read of the location would otherwise notice (a buffered write
// alone records nothing in the read set). Without the leading entry, a
// conflicting commit landing between this announcement and the base-object
// access could slip past read-version extension and let a stale shadow-copy
// result escape.
func (l *OptimisticLAP[K]) PreOp(tx *stm.Txn, in Intent[K]) {
	loc := l.loc(in.Key)
	if in.Mode == ModeWrite {
		stm.SetSerialToken(tx, loc)
		loc.Touch(tx)
	} else {
		_ = loc.Get(tx)
	}
}

// PostOp touches the intent's location after the base access: it is
// registered in the read set and revalidated, so if a conflicting
// transaction acquired, committed or replayed onto the base structure since
// the announcement, this transaction aborts here, before the operation's
// (potentially inconsistent) result escapes. Under eager updates with eager
// conflict detection this is the re-validation of Theorem 5.2; under lazy
// updates it is the trailing read of Theorem 5.3, which makes
// Lazy/Optimistic Proust opaque on a fully lazy STM. Write intents need the
// touch as well, because a buffered STM write alone does not conflict with
// another buffered write.
func (l *OptimisticLAP[K]) PostOp(tx *stm.Txn, in Intent[K]) {
	l.loc(in.Key).Touch(tx)
}

// DefaultLockTimeout bounds pessimistic abstract-lock acquisition; a timeout
// aborts the transaction (deadlock becomes abort + backoff).
const DefaultLockTimeout = 10 * time.Millisecond

// PessimisticLAP allocates striped re-entrant read-write locks, acquired
// before the operation and held until the transaction commits or aborts
// (two-phase locking) — the boosting discipline. Acquisition is bounded by
// a timeout; on timeout or a read-to-write upgrade conflict the transaction
// aborts and retries, which is how the paper's livelock observation about
// coupling abstract locks with the STM's contention management is handled.
type PessimisticLAP[K comparable] struct {
	hash    func(K) uint64
	locks   *lock.Striped
	timeout time.Duration
	held    *stm.Pooled[heldStripes]
}

// heldStripesInline is the number of distinct stripes tracked without
// spilling to a map. A transaction rarely touches more (the Figure-4
// workloads stay well under it), and the linear scan over a small array
// beats per-operation map hashing — the same regime split as the STM's
// inline write set (writeset.go).
const heldStripesInline = 8

// heldStripes tracks the stripes a transaction acquired, so release touches
// only those instead of sweeping the whole table. It is an inline
// small-array set with map spill, pooled across transactions: the
// map-per-transaction the old representation allocated was one of the
// residual ADT-level allocations on the Figure-4 pessimistic series.
type heldStripes struct {
	arr   [heldStripesInline]*lock.ReentrantRW
	n     int
	spill map[*lock.ReentrantRW]struct{} // nil until arr overflows; retained across reuse
	// tx is the transaction currently attached to this set; rel is the
	// release hook, created once per instance (it reads hs.tx so the same
	// closure serves every transaction that reuses the set).
	tx  *stm.Txn
	rel func()
}

// add records a stripe (idempotently).
func (hs *heldStripes) add(s *lock.ReentrantRW) {
	for i := 0; i < hs.n; i++ {
		if hs.arr[i] == s {
			return
		}
	}
	if hs.n < len(hs.arr) {
		hs.arr[hs.n] = s
		hs.n++
		return
	}
	if hs.spill == nil {
		hs.spill = make(map[*lock.ReentrantRW]struct{}, 2*heldStripesInline)
	}
	hs.spill[s] = struct{}{}
}

// releaseAll releases every tracked stripe on behalf of tx and resets the
// set for pool residency (array slots nilled so pooled sets pin no stripes;
// the spill map keeps its buckets, cleared).
func (hs *heldStripes) releaseAll(tx *stm.Txn) {
	for i := 0; i < hs.n; i++ {
		hs.arr[i].ReleaseAll(tx)
		hs.arr[i] = nil
	}
	hs.n = 0
	for s := range hs.spill {
		s.ReleaseAll(tx)
	}
	clear(hs.spill)
}

var _ LockAllocatorPolicy[int] = (*PessimisticLAP[int])(nil)

// NewPessimisticLAP creates a pessimistic LAP with n lock stripes (n <= 0
// selects DefaultMemSize stripes) and the given acquisition timeout
// (non-positive selects DefaultLockTimeout).
func NewPessimisticLAP[K comparable](hash func(K) uint64, n int, timeout time.Duration) *PessimisticLAP[K] {
	if n <= 0 {
		n = DefaultMemSize
	}
	if timeout <= 0 {
		timeout = DefaultLockTimeout
	}
	l := &PessimisticLAP[K]{
		hash: hash,
		// Stripes are grouped into shards matching the STM's automatic
		// timebase shard count, so per-shard lock contention (HotShards)
		// reads against the same partitioning as the per-shard commit clocks.
		locks:   lock.NewStripedSharded(n, stm.AutoShardCount()),
		timeout: timeout,
	}
	l.held = stm.NewPooled(func(tx *stm.Txn, hs *heldStripes) {
		hs.tx = tx
		if hs.rel == nil {
			hs.rel = func() {
				hs.releaseAll(hs.tx)
				hs.tx = nil
				l.held.Release(hs)
			}
		}
		tx.OnRelease(hs.rel)
	})
	return l
}

// SetObserver attaches an abstract-lock acquisition observer to the stripe
// table (wait durations, contention, timeouts, per-stripe attribution). Call
// before the LAP sees concurrent traffic; nil detaches.
func (l *PessimisticLAP[K]) SetObserver(o lock.Observer) { l.locks.SetObserver(o) }

// Locks exposes the stripe table for diagnostics.
func (l *PessimisticLAP[K]) Locks() *lock.Striped { return l.locks }

// PreOp acquires the stripe for one intent on behalf of the transaction.
// Locks are released by an OnRelease hook (strict two-phase locking:
// "released implicitly on commit or abort", Section 3) — on abort only
// after the inverses have run and the STM has rolled back.
func (l *PessimisticLAP[K]) PreOp(tx *stm.Txn, in Intent[K]) {
	hs := l.held.Get(tx)
	h := l.hash(in.Key)
	hs.add(l.locks.Stripe(h))
	mode := lock.Read
	if in.Mode == ModeWrite {
		mode = lock.Write
	}
	// Acquire through the stripe table so an attached lock.Observer
	// sees the wait.
	err := l.locks.Acquire(tx, h, mode, l.timeout)
	if err != nil {
		// Timeout or upgrade contention: deadlock avoidance by abort
		// plus backoff; the OnAbort hook releases everything
		// acquired so far.
		if !errors.Is(err, lock.ErrTimeout) && !errors.Is(err, lock.ErrUpgradeDeadlock) {
			panic(err) // impossible by the lock package contract
		}
		stm.AbortAndRetry(tx)
	}
}

// PostOp is a no-op: the held stripes exclude conflicting operations for
// the whole transaction, so there is nothing to re-validate.
func (l *PessimisticLAP[K]) PostOp(*stm.Txn, Intent[K]) {}
