package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// Set is an eager Proustian set over a concurrent skip list: per-key
// conflict abstraction (adds/removes/lookups of distinct keys commute), with
// typed undo records replayed as rollback handlers. It demonstrates that
// Proust wraps arbitrary abstract types, not just maps.
type Set[K comparable] struct {
	al   *AbstractLock[K]
	base *conc.SkipListMap[K, struct{}]
	undo *txnUndo[K, struct{}]
}

// NewSet creates an eager Proustian set; cmp orders the keys.
func NewSet[K comparable](s *stm.STM, lap LockAllocatorPolicy[K], cmp func(a, b K) int) *Set[K] {
	st := &Set[K]{
		al:   NewAbstractLock(lap),
		base: conc.NewSkipListMap[K, struct{}](cmp),
	}
	// Records are only logged for effective mutations: had means the key
	// was present before (an effective Remove — undo re-inserts), !had
	// means it was absent (an effective Add — undo removes).
	st.undo = newTxnUndo(s, func(r undoRec[K, struct{}]) {
		if r.had {
			st.base.Put(r.key, struct{}{})
		} else {
			st.base.Remove(r.key)
		}
	})
	return st
}

// Add inserts k, reporting whether it was absent.
func (st *Set[K]) Add(tx *stm.Txn, k K) bool {
	in := W(k)
	st.al.begin1(tx, "add", in)
	_, had := st.base.Put(k, struct{}{})
	if !had {
		st.undo.record(tx, undoRec[K, struct{}]{key: k})
		st.undo.resize(tx, 1)
	}
	st.al.done1(tx, in)
	return !had
}

// Remove deletes k, reporting whether it was present.
func (st *Set[K]) Remove(tx *stm.Txn, k K) bool {
	in := W(k)
	st.al.begin1(tx, "remove", in)
	_, had := st.base.Remove(k)
	if had {
		st.undo.record(tx, undoRec[K, struct{}]{key: k, had: true})
		st.undo.resize(tx, -1)
	}
	st.al.done1(tx, in)
	return had
}

// Contains reports whether k is present.
func (st *Set[K]) Contains(tx *stm.Txn, k K) bool {
	in := R(k)
	st.al.begin1(tx, "contains", in)
	ok := st.base.Contains(k)
	st.al.done1(tx, in)
	return ok
}

// Size returns the committed size.
func (st *Set[K]) Size(tx *stm.Txn) int {
	return st.undo.sizeOf(tx)
}
