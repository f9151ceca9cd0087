package core

import (
	"sync"
	"sync/atomic"

	"proust/internal/stm"
)

// SnapshotLog implements lazy updates with snapshot shadow copies (paper
// Section 4, "Snapshots"): the first time a transaction mutates the wrapped
// object, a fast snapshot of the base structure is taken; all further
// operations of that transaction run against the snapshot (producing return
// values), and are queued as typed records. If the transaction commits, its
// shadow — the base plus exactly its own operations — becomes the base
// inside the commit critical section, "behind the STM's native locking
// mechanisms", in O(1) (Adopt); if it aborts, the shadow and the log are
// simply dropped.
//
// D is the (interface or pointer) type shared by the base structure and its
// snapshots, e.g. *conc.Ctrie[K,V]; O is the wrapper's operation record
// (mapOp, pqOp, ...), applied to a shadow by the static apply function given
// at construction. Records replace the `func(D)` closures the log used to
// queue: a closure per mutation was one heap allocation per operation, and
// an opaque log cannot be applied incrementally.
//
// The wrapper protocol per operation is
//
//	sh := log.Shadow(tx)        // private shadow, synced to current base
//	ret := <apply op to sh>     // typed result, no boxing
//	log.Append(tx, rec)         // queue the record
//
// and reads use ReadView, which serves the unmodified base until the
// transaction's first mutation (the readOnly optimization of the paper's
// Figure 2b).
//
// # Incremental shadows and the commit
//
// The shadow is cached with an applied-record watermark plus a base
// generation: gen counts adoptions, and a cached shadow remembers the
// generation its snapshot captured. An operation re-derives the shadow —
// fresh snapshot, then the whole pending log — only when the generation
// moved, and otherwise just applies its pending suffix: O(n) per n-op
// transaction. The commit does the same under cut: if the generation moved
// since the snapshot (a commuting transaction committed in between), the
// shadow is rebased onto a fresh snapshot of the current base before it is
// adopted, so both effects survive; Adopt requires it, since it only
// accepts a snapshot of the base as the base still is.
//
// Correctness (the Theorem 5.3 argument, DESIGN.md §10): when the
// generation is unchanged, no adoption has completed since the snapshot, so
// snapshot+pending and cached-shadow+suffix denote the same abstract state —
// the reuse is exact, not approximate. When an adoption is concurrently in
// flight (generation observed before its bump), the cached shadow reflects
// the pre-commit base; that is the same state a leading conflict-abstraction
// read has already announced, so a non-commuting committer invalidates this
// transaction at validation via the leading/trailing reads, and a commuting
// one is safe to linearize after — the rebase at commit carries its effect.
// The generation reads that matter — deciding a fresh snapshot or a shadow
// to adopt is current — happen under cut, where no adoption is in flight.
type SnapshotLog[D any, O any] struct {
	base     D
	snapshot func(D) D
	apply    func(D, O)
	adopt    func(base, shadow D)
	// cut serializes taking a snapshot of the base with committing (adopting
	// a shadow into) it, so a shadow is always cut from, and adopted into,
	// a base whose generation is known.
	cut sync.Mutex
	// gen counts adoptions into the base; bumped under cut by each commit,
	// decisively read under cut when a snapshot is taken or adopted.
	gen   atomic.Uint64
	local *stm.Pooled[snapLogState[D, O]]
	// size is the wrapped structure's committed size; each state carries
	// its transaction's pending delta, published with the adoption.
	size committedSize

	name string
	sink Sink // nil when uninstrumented
}

// Instrument attaches a Sink: each committing transaction reports its log
// depth (pending operation count) from inside the commit critical section.
func (l *SnapshotLog[D, O]) Instrument(name string, sink Sink) {
	l.name, l.sink = name, sink
}

// snapLogState is one transaction's shadow + pending log, pooled across
// transactions (reset like the STM's writeSet). The hook closures are
// created once per state instance and re-registered per transaction.
type snapLogState[D any, O any] struct {
	pending []O
	shadow  D
	// applied is the watermark: pending[:applied] is already reflected in
	// shadow.
	applied int
	// baseGen is the l.gen value the shadow's snapshot captured.
	baseGen        uint64
	hasShadow      bool
	size           sizeDelta
	onCommitLocked func()
	onAbort        func()
}

// NewSnapshotLog creates a snapshot log over base, keeping its size on s:
// snapshot must return a fast snapshot of base that the transaction may
// mutate privately, apply must apply one operation record to such a
// snapshot, and adopt must make a snapshot of base, taken with no commit
// since, the new base in place.
func NewSnapshotLog[D any, O any](s *stm.STM, base D, snapshot func(D) D, apply func(D, O), adopt func(base, shadow D)) *SnapshotLog[D, O] {
	l := &SnapshotLog[D, O]{base: base, snapshot: snapshot, apply: apply, adopt: adopt}
	l.size.init(s)
	l.local = stm.NewPooled(func(tx *stm.Txn, st *snapLogState[D, O]) {
		if st.onCommitLocked == nil {
			st.onCommitLocked = func() {
				l.commit(st)
				l.size.publish(&st.size)
				l.release(st)
			}
			st.onAbort = func() { l.release(st) }
		}
		tx.OnCommitLocked(st.onCommitLocked)
		tx.OnAbort(st.onAbort)
	})
	return l
}

// commit makes the transaction's shadow the base: rebased first if a commit
// moved the base since its snapshot, then adopted. The shadow is the base's
// from then on, so it is not discarded. A transaction that queued nothing
// leaves the base alone.
func (l *SnapshotLog[D, O]) commit(st *snapLogState[D, O]) {
	if l.sink != nil {
		l.sink.ReplayDepth(l.name, len(st.pending))
	}
	if len(st.pending) == 0 {
		return
	}
	l.cut.Lock()
	if l.stale(st) {
		l.resnapshot(st)
	}
	l.applyPending(st)
	l.adopt(l.base, st.shadow)
	l.gen.Add(1)
	l.cut.Unlock()
	var zero D
	st.shadow = zero
	st.hasShadow = false
}

// release resets a state for pool residency: records dropped (see truncate:
// pooled logs pin no keys or values), the shadow handed back and its
// reference dropped.
func (l *SnapshotLog[D, O]) release(st *snapLogState[D, O]) {
	truncate(&st.pending)
	l.dropShadow(st)
	st.applied = 0
	st.baseGen = 0
	st.size = sizeDelta{}
	l.local.Release(st)
}

// dropShadow ends the life of the transaction's shadow, if it has one. A
// shadow is private to its transaction from the snapshot to this call, so a
// snapshot type that can reuse a private copy's memory (conc.Ctrie) is told
// here, on abort and when a stale shadow is replaced.
func (l *SnapshotLog[D, O]) dropShadow(st *snapLogState[D, O]) {
	if !st.hasShadow {
		return
	}
	if d, ok := any(st.shadow).(interface{ Discard() }); ok {
		d.Discard()
	}
	var zero D
	st.shadow = zero
	st.hasShadow = false
}

// stale reports whether st has no shadow of the current base.
func (l *SnapshotLog[D, O]) stale(st *snapLogState[D, O]) bool {
	return !st.hasShadow || st.baseGen != l.gen.Load()
}

// resnapshot replaces st's shadow by a fresh snapshot of the base, with no
// record applied yet. The caller holds cut.
func (l *SnapshotLog[D, O]) resnapshot(st *snapLogState[D, O]) {
	l.dropShadow(st)
	st.shadow = l.snapshot(l.base)
	st.baseGen = l.gen.Load()
	st.applied = 0
	st.hasShadow = true
}

// applyPending advances st's shadow by the pending suffix past the
// watermark.
func (l *SnapshotLog[D, O]) applyPending(st *snapLogState[D, O]) {
	for ; st.applied < len(st.pending); st.applied++ {
		l.apply(st.shadow, st.pending[st.applied])
	}
}

// sync brings st.shadow up to date: re-derived from a fresh snapshot when
// the base generation moved (or no shadow exists yet), then advanced by the
// pending suffix past the watermark.
func (l *SnapshotLog[D, O]) sync(st *snapLogState[D, O]) {
	if l.stale(st) {
		l.dropShadow(st) // outside cut: Discard walks the shadow's own nodes
		l.cut.Lock()
		l.resnapshot(st)
		l.cut.Unlock()
	}
	l.applyPending(st)
}

// Shadow returns the transaction's private shadow, synced to the current
// base and the full pending log. The caller applies its operation directly
// to the returned value and then queues the matching record with Append.
func (l *SnapshotLog[D, O]) Shadow(tx *stm.Txn) D {
	st := l.local.Get(tx)
	l.sync(st)
	return st.shadow
}

// Append queues one operation record. The caller must already have applied
// the operation to the Shadow it obtained for this operation, so the
// watermark advances with the append.
func (l *SnapshotLog[D, O]) Append(tx *stm.Txn, rec O) {
	st := l.local.Get(tx)
	st.pending = append(st.pending, rec)
	st.applied = len(st.pending)
}

// ReadView returns the structure as this transaction observes it: its
// synced shadow once it has pending operations, and the unmodified shared
// base otherwise — the readOnly optimization of the paper's Figure 2b,
// which avoids allocating a snapshot until the transaction mutates.
func (l *SnapshotLog[D, O]) ReadView(tx *stm.Txn) D {
	if st, ok := l.local.Peek(tx); ok && len(st.pending) > 0 {
		l.sync(st)
		return st.shadow
	}
	return l.base
}

// Logged reports whether the transaction has begun mutating (and thus holds
// a shadow copy).
func (l *SnapshotLog[D, O]) Logged(tx *stm.Txn) bool {
	_, ok := l.local.Peek(tx)
	return ok
}

// resize changes the structure's size by by within tx (see committedSize).
func (l *SnapshotLog[D, O]) resize(tx *stm.Txn, by int64) {
	l.size.add(tx, &l.local.Get(tx).size, by)
}

// sizeOf returns the structure's size as tx observes it.
func (l *SnapshotLog[D, O]) sizeOf(tx *stm.Txn) int {
	var pending int64
	if st, ok := l.local.Peek(tx); ok {
		pending = st.size.n
	}
	return l.size.read(tx, pending)
}

// MapBase is the minimal map contract shared by conc.HashMap and conc.Ctrie
// that memoizing shadow copies need.
type MapBase[K comparable, V any] interface {
	Get(K) (V, bool)
	Contains(K) bool
	Put(K, V) (V, bool)
	Remove(K) (V, bool)
}

// memoOp is one logged map mutation (put bool distinguishes put from
// remove) — the typed record that replaced the queued `func(MapBase)`
// closures.
type memoOp[K comparable, V any] struct {
	key K
	val V
	put bool
}

// MemoLog implements lazy updates with memoizing shadow copies (paper
// Section 4, "Memoization"): for maps, the result of any operation can be
// computed from the base state plus the transaction's own pending
// operations, so the shadow copy is just a transaction-local overlay table.
//
// With combine=true the log applies only the final state of each touched
// key at commit (one synthetic update per key) instead of replaying every
// logged operation — the log-combining optimization evaluated at the bottom
// of the paper's Figure 4.
type MemoLog[K comparable, V any] struct {
	base    MapBase[K, V]
	combine bool
	local   *stm.Pooled[memoState[K, V]]
	// size is the map's committed size; each state carries its
	// transaction's pending delta, published with the replay.
	size committedSize

	name string
	sink Sink // nil when uninstrumented
}

// Instrument attaches a Sink: each committing transaction reports its replay
// depth — logged operations, or distinct touched keys when combining — from
// inside the commit critical section.
func (l *MemoLog[K, V]) Instrument(name string, sink Sink) {
	l.name, l.sink = name, sink
}

// memoState is one transaction's overlay + op log, pooled across
// transactions. The overlay map and order slice are retained across reuse
// (cleared, buckets kept), so a steady-state transaction performs no map
// allocation.
type memoState[K comparable, V any] struct {
	overlay        map[K]memoEntry[V]
	order          []K // touched keys in first-touch order (combined replay)
	ops            []memoOp[K, V]
	size           sizeDelta
	onCommitLocked func()
	onAbort        func()
}

type memoEntry[V any] struct {
	present bool
	val     V
}

// NewMemoLog creates a memoizing replay log over base, keeping its size on
// s.
func NewMemoLog[K comparable, V any](s *stm.STM, base MapBase[K, V], combine bool) *MemoLog[K, V] {
	l := &MemoLog[K, V]{base: base, combine: combine}
	l.size.init(s)
	l.local = stm.NewPooled(func(tx *stm.Txn, st *memoState[K, V]) {
		if st.overlay == nil {
			st.overlay = make(map[K]memoEntry[V], 8)
			st.onCommitLocked = func() {
				l.replay(st)
				l.size.publish(&st.size)
				l.release(st)
			}
			st.onAbort = func() { l.release(st) }
		}
		tx.OnCommitLocked(st.onCommitLocked)
		tx.OnAbort(st.onAbort)
	})
	return l
}

// release resets a state for pool residency.
func (l *MemoLog[K, V]) release(st *memoState[K, V]) {
	clear(st.overlay)
	truncate(&st.order)
	truncate(&st.ops)
	st.size = sizeDelta{}
	l.local.Release(st)
}

// resize changes the map's size by by within tx (see committedSize).
func (l *MemoLog[K, V]) resize(tx *stm.Txn, by int64) {
	l.size.add(tx, &l.local.Get(tx).size, by)
}

// sizeOf returns the map's size as tx observes it.
func (l *MemoLog[K, V]) sizeOf(tx *stm.Txn) int {
	var pending int64
	if st, ok := l.local.Peek(tx); ok {
		pending = st.size.n
	}
	return l.size.read(tx, pending)
}

// Combining reports whether log combining is enabled.
func (l *MemoLog[K, V]) Combining() bool { return l.combine }

func (l *MemoLog[K, V]) replay(st *memoState[K, V]) {
	if l.sink != nil {
		if l.combine {
			l.sink.ReplayDepth(l.name, len(st.order))
		} else {
			l.sink.ReplayDepth(l.name, len(st.ops))
		}
	}
	if !l.combine {
		for i := range st.ops {
			op := &st.ops[i]
			if op.put {
				l.base.Put(op.key, op.val)
			} else {
				l.base.Remove(op.key)
			}
		}
		return
	}
	for _, k := range st.order {
		e := st.overlay[k]
		if e.present {
			l.base.Put(k, e.val)
		} else {
			l.base.Remove(k)
		}
	}
}

// Get returns k's value as seen by the transaction: its own pending writes
// first, then the unmodified base.
func (l *MemoLog[K, V]) Get(tx *stm.Txn, k K) (V, bool) {
	if st, ok := l.local.Peek(tx); ok {
		if e, hit := st.overlay[k]; hit {
			if !e.present {
				var zero V
				return zero, false
			}
			return e.val, true
		}
	}
	return l.base.Get(k)
}

// Contains reports whether k is present as seen by the transaction. Unlike
// Get it never copies the value: presence is answered from the overlay
// entry's bit or the base's own containment check.
func (l *MemoLog[K, V]) Contains(tx *stm.Txn, k K) bool {
	if st, ok := l.local.Peek(tx); ok {
		if e, hit := st.overlay[k]; hit {
			return e.present
		}
	}
	return l.base.Contains(k)
}

// Put records a pending put and returns the logical previous value.
func (l *MemoLog[K, V]) Put(tx *stm.Txn, k K, v V) (V, bool) {
	st := l.local.Get(tx)
	old, had := l.lookup(st, k)
	l.record(st, k, memoEntry[V]{present: true, val: v})
	if !l.combine {
		st.ops = append(st.ops, memoOp[K, V]{key: k, val: v, put: true})
	}
	return old, had
}

// Remove records a pending remove and returns the logical previous value.
func (l *MemoLog[K, V]) Remove(tx *stm.Txn, k K) (V, bool) {
	st := l.local.Get(tx)
	old, had := l.lookup(st, k)
	l.record(st, k, memoEntry[V]{})
	if !l.combine {
		st.ops = append(st.ops, memoOp[K, V]{key: k})
	}
	return old, had
}

func (l *MemoLog[K, V]) lookup(st *memoState[K, V], k K) (V, bool) {
	if e, hit := st.overlay[k]; hit {
		if !e.present {
			var zero V
			return zero, false
		}
		return e.val, true
	}
	return l.base.Get(k)
}

func (l *MemoLog[K, V]) record(st *memoState[K, V], k K, e memoEntry[V]) {
	if _, seen := st.overlay[k]; !seen {
		st.order = append(st.order, k)
	}
	st.overlay[k] = e
}
