package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// TxMap is the transactional map API shared by every Proustian map wrapper
// and by the baselines — the Go rendering of the paper's MapTrait
// (Listing 2). Size is reified out of the abstract state as an
// optimization, as the paper does with committedSize: the Proustian
// wrappers keep an atomic count published at commit (committedSize), the
// baselines an STM reference.
type TxMap[K comparable, V any] interface {
	Put(tx *stm.Txn, k K, v V) (V, bool)
	Get(tx *stm.Txn, k K) (V, bool)
	Contains(tx *stm.Txn, k K) bool
	Remove(tx *stm.Txn, k K) (V, bool)
	Size(tx *stm.Txn) int
}

// Map is the eager Proustian map (paper Figure 2a): a concurrent hash trie
// wrapped with per-key conflict abstraction; operations mutate the trie
// immediately and log typed undo records replayed as rollback handlers.
type Map[K comparable, V any] struct {
	al   *AbstractLock[K]
	base *conc.Ctrie[K, V]
	hash conc.Hasher[K]
	undo *txnUndo[K, V]
}

var _ TxMap[int, int] = (*Map[int, int])(nil)

// NewMap creates an eager Proustian map over a fresh Ctrie.
func NewMap[K comparable, V any](s *stm.STM, lap LockAllocatorPolicy[K], hash conc.Hasher[K]) *Map[K, V] {
	// The eager map never snapshots its base — rollback comes from the
	// typed undo log below — so it uses the unversioned Ctrie and skips
	// the persistence machinery entirely (DESIGN.md §13).
	base := conc.NewCtrieUnversioned[K, V](hash)
	return &Map[K, V]{
		al:   NewAbstractLock(lap),
		base: base,
		hash: hash,
		undo: newBindingUndo[K, V](s, base),
	}
}

// Instrument attaches ADT-level observability (see AbstractLock.Instrument).
func (m *Map[K, V]) Instrument(name string, sink Sink) {
	m.al.Instrument(name, m.hash, sink)
}

// Put stores v under k, returning the previous value if any.
func (m *Map[K, V]) Put(tx *stm.Txn, k K, v V) (V, bool) {
	in := W(k)
	m.al.begin1(tx, "put", in)
	old, had := m.base.Put(k, v)
	m.undo.record(tx, undoRec[K, V]{key: k, val: old, had: had})
	if !had {
		m.undo.resize(tx, 1)
	}
	m.al.done1(tx, in)
	return old, had
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(tx *stm.Txn, k K) (V, bool) {
	in := R(k)
	m.al.begin1(tx, "get", in)
	v, ok := m.base.Get(k)
	m.al.done1(tx, in)
	return v, ok
}

// Contains reports whether k is present, without copying the value out of
// the trie the way Get must.
func (m *Map[K, V]) Contains(tx *stm.Txn, k K) bool {
	in := R(k)
	m.al.begin1(tx, "contains", in)
	ok := m.base.Contains(k)
	m.al.done1(tx, in)
	return ok
}

// Remove deletes k, returning the previous value if any.
func (m *Map[K, V]) Remove(tx *stm.Txn, k K) (V, bool) {
	in := W(k)
	m.al.begin1(tx, "remove", in)
	old, had := m.base.Remove(k)
	if had {
		m.undo.record(tx, undoRec[K, V]{key: k, val: old, had: true})
		m.undo.resize(tx, -1)
	}
	m.al.done1(tx, in)
	return old, had
}

// Size returns the committed size.
func (m *Map[K, V]) Size(tx *stm.Txn) int {
	return m.undo.sizeOf(tx)
}
