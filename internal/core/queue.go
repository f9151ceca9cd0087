package core

import (
	"proust/internal/stm"
)

// QState enumerates the abstract-state elements of a FIFO queue. A queue is
// the PushBack/PopFront/PeekFront subset of a Deque, so its abstract state
// is the deque's two ends: QHead is DQFront and QTail is DQBack.
type QState = DQState

const (
	// QHead is the abstract front of the queue.
	QHead = DQFront
	// QTail is the abstract back of the queue.
	QTail = DQBack
)

// QStateHash hashes a QState for lock-allocator policies.
func QStateHash(s QState) uint64 { return DQStateHash(s) }

// Queue is the eager Proustian FIFO queue: Enqueue, Dequeue and Peek are the
// Deque's PushBack, PopFront and PeekFront, with the deque's conflict
// abstraction. Enqueues serialize on the tail and dequeues on the head; an
// enqueue and a dequeue commute while the queue is long enough that they
// cannot observe each other. Near emptiness a dequeue widens to write the
// tail as well. Without that widening a transaction that dequeues twice
// walks past the last committed item onto one an uncommitted enqueue
// appended, and returns a value that may never commit.
type Queue[V any] struct {
	dq *Deque[V]
}

// NewQueue creates an eager Proustian queue.
func NewQueue[V any](s *stm.STM, lap LockAllocatorPolicy[QState]) *Queue[V] {
	return &Queue[V]{dq: NewDeque[V](s, lap)}
}

// Enqueue appends v.
func (q *Queue[V]) Enqueue(tx *stm.Txn, v V) { q.dq.push(tx, "enqueue", QTail, v) }

// Dequeue removes and returns the oldest value.
func (q *Queue[V]) Dequeue(tx *stm.Txn) (V, bool) { return q.dq.pop(tx, "dequeue", QHead) }

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

// Peek returns the oldest value without removing it.
func (q *Queue[V]) Peek(tx *stm.Txn) (V, bool) { return q.dq.peek(tx, "peek", QHead) }

// Size returns the committed size.
func (q *Queue[V]) Size(tx *stm.Txn) int { return q.dq.Size(tx) }
