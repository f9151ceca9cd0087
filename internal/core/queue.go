package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// QState enumerates the abstract-state elements of a FIFO queue, following
// the PQueueTrait pattern of paper Listing 3. Enqueues serialize on the
// tail (FIFO order is part of the abstract state, so even two enqueues do
// not commute); dequeues serialize on the head; an enqueue and a dequeue
// commute whenever the queue is non-empty — the transactional-boosting
// pipeline example.
type QState int

const (
	// QHead is the abstract front of the queue.
	QHead QState = iota + 1
	// QTail is the abstract back of the queue.
	QTail
)

// QStateHash hashes a QState for lock-allocator policies.
func QStateHash(s QState) uint64 {
	return uint64(s) * 0x9e3779b97f4a7c15
}

// Queue is the eager Proustian FIFO queue: a thread-safe linked queue
// wrapped with the QHead/QTail conflict abstraction. Inverses use lazy
// deletion (for enqueue) and front re-insertion (for dequeue).
type Queue[V any] struct {
	al   *AbstractLock[QState]
	base *conc.Queue[V]
	size *stm.Ref[int]
}

// NewQueue creates an eager Proustian queue.
func NewQueue[V any](s *stm.STM, lap LockAllocatorPolicy[QState]) *Queue[V] {
	return &Queue[V]{
		al:   NewAbstractLock(lap, Eager),
		base: conc.NewQueue[V](),
		size: stm.NewRef(s, 0),
	}
}

// Enqueue appends v. The conflict abstraction writes QTail always and QHead
// only when the queue is empty (an enqueue into an empty queue changes what
// the next dequeue observes; otherwise enqueue and dequeue commute).
func (q *Queue[V]) Enqueue(tx *stm.Txn, v V) {
	intents := []Intent[QState]{W(QTail)}
	if q.base.Len() == 0 {
		intents = append(intents, W(QHead))
	}
	q.al.Apply(tx, intents, func() any {
		return q.base.Enqueue(v)
	}, func(r any) {
		it := r.(*conc.QItem[V])
		it.Delete()
		q.base.NoteDeleted()
	})
	q.size.Modify(tx, func(n int) int { return n + 1 })
}

// Dequeue removes and returns the oldest value.
func (q *Queue[V]) Dequeue(tx *stm.Txn) (V, bool) {
	ret := q.al.Apply(tx, []Intent[QState]{W(QHead)}, func() any {
		it, ok := q.base.Dequeue()
		return qItemResult[V]{it: it, ok: ok}
	}, func(r any) {
		res := r.(qItemResult[V])
		if res.ok {
			q.base.PushFront(res.it)
		}
	})
	res := ret.(qItemResult[V])
	if !res.ok {
		var zero V
		return zero, false
	}
	q.size.Modify(tx, func(n int) int { return n - 1 })
	return res.it.Value, true
}

// DequeueWait removes and returns the oldest value, blocking (via stm.Retry)
// while the queue is empty: the transaction parks until some other
// transaction commits, then re-executes. Combine with Do / DoResult and a
// context to bound the wait — a canceled or expired context unblocks the
// parked consumer with stm.ErrCanceled / stm.ErrDeadline, and stm.Close
// unblocks it with stm.ErrClosed.
func (q *Queue[V]) DequeueWait(tx *stm.Txn) V {
	v, ok := q.Dequeue(tx)
	if !ok {
		stm.Retry(tx)
	}
	return v
}

type qItemResult[V any] struct {
	it *conc.QItem[V]
	ok bool
}

// Peek returns the oldest value without removing it.
func (q *Queue[V]) Peek(tx *stm.Txn) (V, bool) {
	ret := q.al.Apply(tx, []Intent[QState]{R(QHead)}, func() any {
		v, ok := q.base.Peek()
		return prev[V]{val: v, had: ok}
	}, nil)
	pr := ret.(prev[V])
	return pr.val, pr.had
}

// Size returns the committed size.
func (q *Queue[V]) Size(tx *stm.Txn) int {
	return q.size.Get(tx)
}
