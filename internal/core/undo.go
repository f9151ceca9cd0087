package core

import "proust/internal/stm"

// Typed undo logs for the eager Proustian wrappers (the boosting rollback
// discipline). An undoLog appends one typed record per mutation into
// pooled, transaction-local storage; a single
// per-transaction OnAbort registration replays the records LIFO (the order
// the boosting correctness argument requires) through the wrapper's static
// undo function. Steady state: zero allocations per operation, two hook
// closures per (transaction, structure) pair.
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
	recs     []undoRec[K, V]
	onAbort  func()
	onCommit func()
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
// structure. undo is the wrapper's static record interpreter, invoked LIFO
// on abort.
type txnUndo[K comparable, V any] struct {
	p    *stm.Pooled[undoLog[K, V]]
	undo func(undoRec[K, V])
}

func newTxnUndo[K comparable, V any](undo func(undoRec[K, V])) *txnUndo[K, V] {
	u := &txnUndo[K, V]{undo: undo}
	u.p = stm.NewPooled(func(tx *stm.Txn, lg *undoLog[K, V]) {
		if lg.onAbort == nil {
			lg.onAbort = func() {
				for i := len(lg.recs) - 1; i >= 0; i-- {
					u.undo(lg.recs[i])
				}
				u.release(lg)
			}
			lg.onCommit = func() { u.release(lg) }
		}
		tx.OnAbort(lg.onAbort)
		tx.OnCommit(lg.onCommit)
	})
	return u
}

// newBindingUndo is the "restore previous binding" log of the map wrappers:
// each record holds the key's binding before the mutation, and replay
// re-Puts the previous value or Removes the key.
func newBindingUndo[K comparable, V any](base interface {
	Put(K, V) (V, bool)
	Remove(K) (V, bool)
}) *txnUndo[K, V] {
	return newTxnUndo(func(r undoRec[K, V]) {
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

// release resets a log for pool residency and hands it back.
func (u *txnUndo[K, V]) release(lg *undoLog[K, V]) {
	truncate(&lg.recs)
	u.p.Release(lg)
}
