package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// Multiset undo-record kinds: relative inverses. Concurrent adds/removes of
// the same element commute far from zero, so an aborting transaction must
// not restore an absolute count snapshot — it re-applies the opposite
// relative update.
const (
	msUndoDecr uint8 = iota // undo an add: decrement
	msUndoIncr              // undo a remove: increment
)

func msDec(c int, _ bool) (int, bool) { return c - 1, c > 1 }
func msInc(c int, _ bool) (int, bool) { return c + 1, true }

// Multiset is an eager Proustian multiset (bag) whose conflict abstraction
// generalizes the paper's Section 3 counter to one abstract counter per
// element:
//
//	add(x):      write(loc_x) when count(x) = 0 (the 0→1 transition is
//	             observable by contains), read(loc_x) otherwise
//	remove(x):   write(loc_x) when count(x) ≤ 1 (underflow error and the
//	             1→0 transition are observable), read(loc_x) otherwise
//	contains(x): read(loc_x)
//	count(x):    write(loc_x) — the exact count never commutes with updates
//
// Far from zero, adds and removes of the same element commute and perform
// only read accesses; distinct elements never interact. The soundness of
// this abstraction is machine-checked by verify.MultisetModel.
type Multiset[K comparable] struct {
	al   *AbstractLock[K]
	base *conc.HashMap[K, int]
	undo *txnUndo[K, struct{}]
}

// NewMultiset creates an eager Proustian multiset.
func NewMultiset[K comparable](s *stm.STM, lap LockAllocatorPolicy[K], hash conc.Hasher[K]) *Multiset[K] {
	ms := &Multiset[K]{
		al:   NewAbstractLock(lap),
		base: conc.NewHashMap[K, int](hash),
	}
	ms.undo = newTxnUndo(s, func(r undoRec[K, struct{}]) {
		if r.kind == msUndoDecr {
			ms.base.Update(r.key, msDec)
		} else {
			ms.base.Update(r.key, msInc)
		}
	})
	return ms
}

func (ms *Multiset[K]) countOf(k K) int {
	c, _ := ms.base.Get(k)
	return c
}

// Add inserts one occurrence of k.
func (ms *Multiset[K]) Add(tx *stm.Txn, k K) {
	in := R(k)
	if ms.countOf(k) == 0 {
		in = W(k)
	}
	ms.al.begin1(tx, "add", in)
	ms.base.Update(k, msInc)
	ms.undo.record(tx, undoRec[K, struct{}]{key: k, kind: msUndoDecr})
	ms.undo.resize(tx, 1)
	ms.al.done1(tx, in)
}

// Remove deletes one occurrence of k, reporting whether one existed.
func (ms *Multiset[K]) Remove(tx *stm.Txn, k K) bool {
	in := R(k)
	if ms.countOf(k) <= 1 {
		in = W(k)
	}
	ms.al.begin1(tx, "remove", in)
	removed := false
	ms.base.Update(k, func(c int, had bool) (int, bool) {
		if !had || c == 0 {
			return 0, false
		}
		removed = true
		return c - 1, c > 1
	})
	if removed {
		ms.undo.record(tx, undoRec[K, struct{}]{key: k, kind: msUndoIncr})
		ms.undo.resize(tx, -1)
	}
	ms.al.done1(tx, in)
	return removed
}

// Contains reports whether at least one occurrence of k exists.
func (ms *Multiset[K]) Contains(tx *stm.Txn, k K) bool {
	in := R(k)
	ms.al.begin1(tx, "contains", in)
	ok := ms.countOf(k) > 0
	ms.al.done1(tx, in)
	return ok
}

// Count returns the number of occurrences of k.
func (ms *Multiset[K]) Count(tx *stm.Txn, k K) int {
	in := W(k)
	ms.al.begin1(tx, "count", in)
	c := ms.countOf(k)
	ms.al.done1(tx, in)
	return c
}

// Size returns the committed total number of occurrences.
func (ms *Multiset[K]) Size(tx *stm.Txn) int {
	return ms.undo.sizeOf(tx)
}
