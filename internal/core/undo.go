package core

import "proust/internal/stm"

// Typed undo logs for the eager Proustian wrappers (the boosting rollback
// discipline). An undoLog appends one typed record per mutation into
// pooled, transaction-local storage; a single
// per-transaction OnAbort registration replays the records LIFO (the order
// the boosting correctness argument requires) through the wrapper's static
// undo function. The log also carries the transaction's pending change to
// the structure's size (committedSize), published by an OnCommitLocked hook
// registered with the first change. Steady state: zero allocations per
// operation; the hook closures are made once per pooled log.
//
// Record interpretation belongs to the wrapper that owns the log:
//
//   - Map / OrderedMap-style "restore previous binding": key, val, had —
//     replay re-Puts the previous value or Removes the key.
//   - Multiset-style relative inverses (concurrent commuting updates forbid
//     restoring an absolute snapshot): kind selects increment vs decrement.
//   - PQueue / Deque-style item handles: val carries the *conc.Item or
//     *conc.QItem to logically delete or re-link.
type undoRec[K comparable, V any] struct {
	key  K
	val  V
	kind uint8
	had  bool
}

// undoLog is one transaction's record list; it lives in a stm.Pooled slot so
// the backing array stays warm across transactions. The hook closures are
// created once per log instance (they capture only the log and its owner,
// both stable across pool reuses) and re-registered per transaction, so a
// steady-state transaction allocates no closures.
type undoLog[K comparable, V any] struct {
	recs []undoRec[K, V]
	// size is the transaction's pending change to the structure's size,
	// published by onCommitLocked (registered on the first change).
	size           sizeDelta
	onAbort        func()
	onCommit       func()
	onCommitLocked func()
}

// adtMaxRetainedCap bounds the per-log capacity a pooled ADT log keeps, so
// one huge transaction cannot pin its records in the pool forever (the same
// bound as the descriptor pool's maxRetainedCap).
const adtMaxRetainedCap = 4096

// truncate empties a pooled ADT log at release, zeroing the records it drops
// and shedding a backing array grown past adtMaxRetainedCap. It is the only
// way such a log gets shorter, so its spare capacity is all-zero at all times
// (append only ever writes below the length, and a grown array starts
// zeroed): release costs O(records this transaction appended), and a parked
// log pins no keys, values or item pointers from earlier transactions.
func truncate[T any](s *[]T) {
	if cap(*s) > adtMaxRetainedCap {
		*s = nil
		return
	}
	clear(*s)
	*s = (*s)[:0]
}

// txnUndo attaches an undoLog to transactions that mutate the owning
// structure, and keeps the structure's committed size. undo is the
// wrapper's static record interpreter, invoked LIFO on abort.
type txnUndo[K comparable, V any] struct {
	p    *stm.Pooled[undoLog[K, V]]
	undo func(undoRec[K, V])
	size committedSize
}

func newTxnUndo[K comparable, V any](s *stm.STM, undo func(undoRec[K, V])) *txnUndo[K, V] {
	u := &txnUndo[K, V]{undo: undo}
	u.size.init(s)
	u.p = stm.NewPooled(func(tx *stm.Txn, lg *undoLog[K, V]) {
		if lg.onAbort == nil {
			lg.onAbort = func() {
				for i := len(lg.recs) - 1; i >= 0; i-- {
					u.undo(lg.recs[i])
				}
				u.release(lg)
			}
			lg.onCommit = func() { u.release(lg) }
			lg.onCommitLocked = func() { u.size.publish(&lg.size) }
		}
		tx.OnAbort(lg.onAbort)
		tx.OnCommit(lg.onCommit)
	})
	return u
}

// newBindingUndo is the "restore previous binding" log of the map wrappers:
// each record holds the key's binding before the mutation, and replay
// re-Puts the previous value or Removes the key.
func newBindingUndo[K comparable, V any](s *stm.STM, base interface {
	Put(K, V) (V, bool)
	Remove(K) (V, bool)
}) *txnUndo[K, V] {
	return newTxnUndo(s, func(r undoRec[K, V]) {
		if r.had {
			base.Put(r.key, r.val)
		} else {
			base.Remove(r.key)
		}
	})
}

// record appends one undo record for the current transaction. Call it
// immediately after the base-structure mutation it inverts, before any
// subsequent STM access of the operation (an STM access may unwind the
// transaction, and every applied mutation must already be covered by a
// record when it does).
func (u *txnUndo[K, V]) record(tx *stm.Txn, r undoRec[K, V]) {
	lg := u.p.Get(tx)
	lg.recs = append(lg.recs, r)
}

// resize changes the structure's size by by within tx (see
// committedSize). Call it after the record of the mutation that changed it.
func (u *txnUndo[K, V]) resize(tx *stm.Txn, by int64) {
	lg := u.p.Get(tx)
	if u.size.add(tx, &lg.size, by) {
		tx.OnCommitLocked(lg.onCommitLocked)
	}
}

// sizeOf returns the structure's size as tx observes it.
func (u *txnUndo[K, V]) sizeOf(tx *stm.Txn) int {
	var pending int64
	if lg, ok := u.p.Peek(tx); ok {
		pending = lg.size.n
	}
	return u.size.read(tx, pending)
}

// release resets a log for pool residency and hands it back.
func (u *txnUndo[K, V]) release(lg *undoLog[K, V]) {
	truncate(&lg.recs)
	lg.size = sizeDelta{}
	u.p.Release(lg)
}
