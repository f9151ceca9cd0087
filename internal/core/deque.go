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
	undo *txnUndo[DQState, *conc.QItem[V]]
}

// Deque undo-record kinds: a push's inverse is a constant-time logical
// delete of the pushed item; a pop's inverse re-links the item at the end
// it left.
const (
	dqUndoPush uint8 = iota
	dqUndoPopFront
	dqUndoPopBack
)

// NewDeque creates an eager Proustian deque.
func NewDeque[V any](s *stm.STM, lap LockAllocatorPolicy[DQState]) *Deque[V] {
	q := &Deque[V]{
		al:   NewAbstractLock(lap),
		base: conc.NewQueue[V](),
	}
	q.undo = newTxnUndo(s, func(r undoRec[DQState, *conc.QItem[V]]) {
		switch r.kind {
		case dqUndoPush:
			r.val.Delete()
			q.base.NoteDeleted()
		case dqUndoPopFront:
			q.base.PushFront(r.val)
		default:
			q.base.PushBack(r.val)
		}
	})
	return q
}

// opposite returns the other end.
func opposite(end DQState) DQState {
	if end == DQFront {
		return DQBack
	}
	return DQFront
}

// begin opens an update of end: W(end), widened to W(other end) when wide.
func (q *Deque[V]) begin(tx *stm.Txn, opName string, end DQState, wide bool) {
	if wide {
		q.al.begin2(tx, opName, W(end), W(opposite(end)))
	} else {
		q.al.begin1(tx, opName, W(end))
	}
}

// done closes what begin opened.
func (q *Deque[V]) done(tx *stm.Txn, end DQState, wide bool) {
	if wide {
		q.al.done2(tx, W(end), W(opposite(end)))
	} else {
		q.al.done1(tx, W(end))
	}
}

// push inserts v at end.
func (q *Deque[V]) push(tx *stm.Txn, opName string, end DQState, v V) {
	wide := q.base.Len() == 0
	q.begin(tx, opName, end, wide)
	it := &conc.QItem[V]{Value: v}
	if end == DQFront {
		q.base.PushFront(it)
	} else {
		q.base.PushBack(it)
	}
	q.undo.record(tx, undoRec[DQState, *conc.QItem[V]]{val: it, kind: dqUndoPush})
	q.undo.resize(tx, 1)
	q.done(tx, end, wide)
}

// pop removes and returns the value at end.
func (q *Deque[V]) pop(tx *stm.Txn, opName string, end DQState) (V, bool) {
	wide := q.base.Len() <= 2
	q.begin(tx, opName, end, wide)
	var it *conc.QItem[V]
	var ok bool
	kind := dqUndoPopFront
	if end == DQFront {
		it, ok = q.base.Dequeue()
	} else {
		it, ok = q.base.PopBack()
		kind = dqUndoPopBack
	}
	if ok {
		q.undo.record(tx, undoRec[DQState, *conc.QItem[V]]{val: it, kind: kind})
		q.undo.resize(tx, -1)
	}
	q.done(tx, end, wide)
	if !ok {
		var zero V
		return zero, false
	}
	return it.Value, true
}

// peek returns the value at end without removing it.
func (q *Deque[V]) peek(tx *stm.Txn, opName string, end DQState) (V, bool) {
	in := R(end)
	q.al.begin1(tx, opName, in)
	var v V
	var ok bool
	if end == DQFront {
		v, ok = q.base.Peek()
	} else {
		v, ok = q.base.PeekBack()
	}
	q.al.done1(tx, in)
	return v, ok
}

// PushFront inserts v at the front.
func (q *Deque[V]) PushFront(tx *stm.Txn, v V) { q.push(tx, "pushFront", DQFront, v) }

// PushBack inserts v at the back.
func (q *Deque[V]) PushBack(tx *stm.Txn, v V) { q.push(tx, "pushBack", DQBack, v) }

// PopFront removes and returns the front value.
func (q *Deque[V]) PopFront(tx *stm.Txn) (V, bool) { return q.pop(tx, "popFront", DQFront) }

// PopBack removes and returns the back value.
func (q *Deque[V]) PopBack(tx *stm.Txn) (V, bool) { return q.pop(tx, "popBack", DQBack) }

// PeekFront returns the front value without removing it.
func (q *Deque[V]) PeekFront(tx *stm.Txn) (V, bool) { return q.peek(tx, "peekFront", DQFront) }

// PeekBack returns the back value without removing it.
func (q *Deque[V]) PeekBack(tx *stm.Txn) (V, bool) { return q.peek(tx, "peekBack", DQBack) }

// Size returns the committed size.
func (q *Deque[V]) Size(tx *stm.Txn) int {
	return q.undo.sizeOf(tx)
}
