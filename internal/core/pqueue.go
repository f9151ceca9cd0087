package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// PQState enumerates the abstract-state elements of a priority queue (the
// paper's PQueueTrait, Listing 3). Commutativity is expressed against these
// two elements rather than pairwise between methods: PQueueMin allows
// multiple readers and a single writer; PQueueMultiSet allows multiple
// writers or multiple readers (an intent-compatible striped RW lock, or two
// conflict-abstraction locations, realize exactly that).
type PQState int

const (
	// PQMin is the abstract minimum element.
	PQMin PQState = iota + 1
	// PQMultiSet is the abstract multiset of queued values.
	PQMultiSet
)

// PQStateHash hashes a PQState for lock-allocator policies.
func PQStateHash(s PQState) uint64 {
	return uint64(s) * 0x9e3779b97f4a7c15
}

// TxPQueue is the transactional priority-queue API (paper Listing 3).
type TxPQueue[V any] interface {
	Insert(tx *stm.Txn, v V)
	Min(tx *stm.Txn) (V, bool)
	RemoveMin(tx *stm.Txn) (V, bool)
	Contains(tx *stm.Txn, v V) bool
	Size(tx *stm.Txn) int
}

// PQueue undo-record kinds: insert's inverse is a constant-time logical
// delete of the inserted item; removeMin's inverse re-links the removed item.
const (
	pqUndoInsert uint8 = iota
	pqUndoRemoveMin
)

// PQueue is the eager Proustian priority queue (paper Figure 3): a
// lock-based binary heap (the PriorityBlockingQueue stand-in) wrapped with
// the PQMin/PQMultiSet conflict abstraction, using lazy-deletion wrappers so
// that insert's inverse is a constant-time logical delete.
type PQueue[V any] struct {
	al   *AbstractLock[PQState]
	base *conc.PQueue[V]
	less conc.Less[V]
	eq   func(a, b V) bool
	undo *txnUndo[PQState, *conc.Item[V]]
}

var _ TxPQueue[int] = (*PQueue[int])(nil)

// NewPQueue creates an eager Proustian priority queue.
func NewPQueue[V any](s *stm.STM, lap LockAllocatorPolicy[PQState], less conc.Less[V], eq func(a, b V) bool) *PQueue[V] {
	q := &PQueue[V]{
		al:   NewAbstractLock(lap),
		base: conc.NewPQueue(less),
		less: less,
		eq:   eq,
	}
	q.undo = newTxnUndo(s, func(r undoRec[PQState, *conc.Item[V]]) {
		if r.kind == pqUndoInsert {
			r.val.Delete()
			q.base.NoteDeleted()
		} else {
			q.base.AddItem(r.val)
		}
	})
	return q
}

// minIntent computes the PQMin intent for inserting v: a write intent when v
// becomes the new minimum, a read intent otherwise (all inserts commute on
// PQMultiSet; an insert above the current minimum commutes with min()). The
// current minimum is observed through the transactional Min, so the read
// intent on PQMin is already held when the decision is made. Unlike the
// paper's listing we also take the write intent when the queue is empty —
// inserting into an empty queue changes the minimum.
func minIntentForInsert[V any](tx *stm.Txn, q TxPQueue[V], less conc.Less[V], v V) Intent[PQState] {
	cur, ok := q.Min(tx)
	if !ok || less(v, cur) {
		return W(PQMin)
	}
	return R(PQMin)
}

// Insert adds v to the queue.
func (q *PQueue[V]) Insert(tx *stm.Txn, v V) {
	mi := minIntentForInsert[V](tx, q, q.less, v)
	q.al.begin2(tx, "insert", W(PQMultiSet), mi)
	it := q.base.Add(v)
	q.undo.record(tx, undoRec[PQState, *conc.Item[V]]{val: it, kind: pqUndoInsert})
	q.undo.resize(tx, 1)
	q.al.done2(tx, W(PQMultiSet), mi)
}

// Min returns the smallest value without removing it.
func (q *PQueue[V]) Min(tx *stm.Txn) (V, bool) {
	in := R(PQMin)
	q.al.begin1(tx, "min", in)
	v, ok := q.base.Min()
	q.al.done1(tx, in)
	return v, ok
}

// RemoveMin removes and returns the smallest value.
func (q *PQueue[V]) RemoveMin(tx *stm.Txn) (V, bool) {
	a, b := W(PQMin), W(PQMultiSet)
	q.al.begin2(tx, "removeMin", a, b)
	it, ok := q.base.RemoveMin()
	if ok {
		q.undo.record(tx, undoRec[PQState, *conc.Item[V]]{val: it, kind: pqUndoRemoveMin})
		q.undo.resize(tx, -1)
	}
	q.al.done2(tx, a, b)
	if !ok {
		var zero V
		return zero, false
	}
	return it.Value, true
}

// Contains reports whether v is queued.
func (q *PQueue[V]) Contains(tx *stm.Txn, v V) bool {
	in := R(PQMultiSet)
	q.al.begin1(tx, "contains", in)
	ok := q.base.Contains(v, q.eq)
	q.al.done1(tx, in)
	return ok
}

// Size returns the committed size.
func (q *PQueue[V]) Size(tx *stm.Txn) int {
	return q.undo.sizeOf(tx)
}

// pqBase is the contract shared by conc.COWHeap and conc.HeapSnapshot,
// letting the snapshot log serve reads from either.
type pqBase[V any] interface {
	Insert(V)
	Min() (V, bool)
	RemoveMin() (V, bool)
	Contains(V, func(a, b V) bool) bool
	Len() int
}

// pqOp is one logged priority-queue mutation for the snapshot replay log:
// an insert of v, or (insert=false) a removeMin.
type pqOp[V any] struct {
	v      V
	insert bool
}

func applyPQOp[V any](b pqBase[V], op pqOp[V]) {
	if op.insert {
		b.Insert(op.v)
	} else {
		b.RemoveMin()
	}
}

// LazyPQueue is the lazy Proustian priority queue (the paper's
// LazyPriorityQueue): a copy-on-write heap provides O(1) snapshots, pending
// operations run against the transaction's snapshot, and the heap adopts the
// snapshot at commit.
// No inverses are needed — exactly the case the paper highlights, since
// priority-queue operations lack efficient inverses in general.
type LazyPQueue[V any] struct {
	al   *AbstractLock[PQState]
	log  *SnapshotLog[pqBase[V], pqOp[V]]
	less conc.Less[V]
	eq   func(a, b V) bool
}

var _ TxPQueue[int] = (*LazyPQueue[int])(nil)

// NewLazyPQueue creates a lazy Proustian priority queue over a fresh
// copy-on-write heap.
func NewLazyPQueue[V any](s *stm.STM, lap LockAllocatorPolicy[PQState], less conc.Less[V], eq func(a, b V) bool) *LazyPQueue[V] {
	heap := conc.NewCOWHeap(less)
	snapshot := func(pqBase[V]) pqBase[V] { return heap.Snapshot() }
	adopt := func(_, sh pqBase[V]) { heap.Adopt(sh.(*conc.HeapSnapshot[V])) }
	return &LazyPQueue[V]{
		al:   NewAbstractLock(lap),
		log:  NewSnapshotLog[pqBase[V]](s, heap, snapshot, applyPQOp[V], adopt),
		less: less,
		eq:   eq,
	}
}

// Insert adds v to the queue.
func (q *LazyPQueue[V]) Insert(tx *stm.Txn, v V) {
	mi := minIntentForInsert[V](tx, q, q.less, v)
	q.al.begin2(tx, "insert", W(PQMultiSet), mi)
	q.log.Shadow(tx).Insert(v)
	q.log.Append(tx, pqOp[V]{v: v, insert: true})
	q.log.resize(tx, 1)
	q.al.done2(tx, W(PQMultiSet), mi)
}

// Min returns the smallest value without removing it.
func (q *LazyPQueue[V]) Min(tx *stm.Txn) (V, bool) {
	in := R(PQMin)
	q.al.begin1(tx, "min", in)
	v, ok := q.log.ReadView(tx).Min()
	q.al.done1(tx, in)
	return v, ok
}

// RemoveMin removes and returns the smallest value. A removeMin of an empty
// queue mutates nothing and queues no record.
func (q *LazyPQueue[V]) RemoveMin(tx *stm.Txn) (V, bool) {
	a, b := W(PQMin), W(PQMultiSet)
	q.al.begin2(tx, "removeMin", a, b)
	v, ok := q.log.Shadow(tx).RemoveMin()
	if ok {
		q.log.Append(tx, pqOp[V]{})
		q.log.resize(tx, -1)
	}
	q.al.done2(tx, a, b)
	return v, ok
}

// Contains reports whether v is queued.
func (q *LazyPQueue[V]) Contains(tx *stm.Txn, v V) bool {
	in := R(PQMultiSet)
	q.al.begin1(tx, "contains", in)
	ok := q.log.ReadView(tx).Contains(v, q.eq)
	q.al.done1(tx, in)
	return ok
}

// Size returns the committed size.
func (q *LazyPQueue[V]) Size(tx *stm.Txn) int {
	return q.log.sizeOf(tx)
}
