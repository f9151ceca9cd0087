package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// DQState enumerates the abstract-state elements of a double-ended queue:
// the two ends. Operations on opposite ends commute while the deque is long
// enough that they cannot observe each other; near emptiness they entangle,
// so the conflict abstraction widens state-dependently — the most intricate
// of the shipped abstractions, machine-checked by verify.DequeModel.
type DQState int

const (
	// DQFront is the abstract front end.
	DQFront DQState = iota + 1
	// DQBack is the abstract back end.
	DQBack
)

// DQStateHash hashes a DQState for lock-allocator policies.
func DQStateHash(s DQState) uint64 {
	return uint64(s) * 0x9e3779b97f4a7c15
}

// Deque is the eager Proustian double-ended queue.
//
// Conflict abstraction (soundness verified by verify.DequeModel):
//
//	pushFront: W(Front); plus W(Back) when empty (the pushed element is
//	           immediately visible at the back)
//	pushBack:  symmetric
//	popFront:  W(Front); plus W(Back) when size ≤ 2 (the pop may expose or
//	           contend for the element the other end sees)
//	popBack:   symmetric
//	peekFront: R(Front); peekBack: R(Back)
//
// verify.DequeModel proves threshold 1 already sound for the idealized
// abstraction; the implementation uses 2 because the size consulted here is
// read before the intents are acquired (the same pre-acquisition state read
// as the paper's Figure 3 priority-queue insert), so one unit of slack
// absorbs concurrent drift.
type Deque[V any] struct {
	al   *AbstractLock[DQState]
	base *conc.Queue[V]
	size *stm.Ref[int]
}

// NewDeque creates an eager Proustian deque.
func NewDeque[V any](s *stm.STM, lap LockAllocatorPolicy[DQState]) *Deque[V] {
	return &Deque[V]{
		al:   NewAbstractLock(lap, Eager),
		base: conc.NewQueue[V](),
		size: stm.NewRef(s, 0),
	}
}

func (q *Deque[V]) pushIntents(own DQState) []Intent[DQState] {
	other := DQBack
	if own == DQBack {
		other = DQFront
	}
	intents := []Intent[DQState]{W(own)}
	if q.base.Len() == 0 {
		intents = append(intents, W(other))
	}
	return intents
}

func (q *Deque[V]) popIntents(own DQState) []Intent[DQState] {
	other := DQBack
	if own == DQBack {
		other = DQFront
	}
	intents := []Intent[DQState]{W(own)}
	if q.base.Len() <= 2 {
		intents = append(intents, W(other))
	}
	return intents
}

// PushFront inserts v at the front.
func (q *Deque[V]) PushFront(tx *stm.Txn, v V) {
	q.al.Apply(tx, q.pushIntents(DQFront), func() any {
		it := &conc.QItem[V]{Value: v}
		q.base.PushFront(it)
		return it
	}, func(r any) {
		it := r.(*conc.QItem[V])
		it.Delete()
		q.base.NoteDeleted()
	})
	q.size.Modify(tx, func(n int) int { return n + 1 })
}

// PushBack inserts v at the back.
func (q *Deque[V]) PushBack(tx *stm.Txn, v V) {
	q.al.Apply(tx, q.pushIntents(DQBack), func() any {
		return q.base.Enqueue(v)
	}, func(r any) {
		it := r.(*conc.QItem[V])
		it.Delete()
		q.base.NoteDeleted()
	})
	q.size.Modify(tx, func(n int) int { return n + 1 })
}

// PopFront removes and returns the front value.
func (q *Deque[V]) PopFront(tx *stm.Txn) (V, bool) {
	ret := q.al.Apply(tx, q.popIntents(DQFront), func() any {
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

// PopBack removes and returns the back value.
func (q *Deque[V]) PopBack(tx *stm.Txn) (V, bool) {
	ret := q.al.Apply(tx, q.popIntents(DQBack), func() any {
		it, ok := q.base.PopBack()
		return qItemResult[V]{it: it, ok: ok}
	}, func(r any) {
		res := r.(qItemResult[V])
		if res.ok {
			q.base.PushBack(res.it)
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

// PeekFront returns the front value without removing it.
func (q *Deque[V]) PeekFront(tx *stm.Txn) (V, bool) {
	ret := q.al.Apply(tx, []Intent[DQState]{R(DQFront)}, func() any {
		v, ok := q.base.Peek()
		return prev[V]{val: v, had: ok}
	}, nil)
	pr := ret.(prev[V])
	return pr.val, pr.had
}

// PeekBack returns the back value without removing it.
func (q *Deque[V]) PeekBack(tx *stm.Txn) (V, bool) {
	ret := q.al.Apply(tx, []Intent[DQState]{R(DQBack)}, func() any {
		v, ok := q.base.PeekBack()
		return prev[V]{val: v, had: ok}
	}, nil)
	pr := ret.(prev[V])
	return pr.val, pr.had
}

// Size returns the committed size.
func (q *Deque[V]) Size(tx *stm.Txn) int {
	return q.size.Get(tx)
}
