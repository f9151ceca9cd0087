package core

import (
	"proust/internal/conc"
	"proust/internal/stm"
)

// mapOp is one logged map mutation for the snapshot replay log: a put of
// (key, val) or, with put=false, a remove of key.
type mapOp[K comparable, V any] struct {
	key K
	val V
	put bool
}

// applyMapOp applies one record to a transaction's shadow trie.
func applyMapOp[K comparable, V any](ct *conc.Ctrie[K, V], op mapOp[K, V]) {
	if op.put {
		ct.Put(op.key, op.val)
	} else {
		ct.Remove(op.key)
	}
}

// LazySnapshotMap is the lazy Proustian map with snapshot shadow copies
// (the paper's LazyTrieMap, Figure 2b): the base structure is a concurrent
// hash trie with constant-time snapshots; each transaction's first mutation
// takes a snapshot, subsequent operations run against it, and on commit the
// shared trie adopts the snapshot inside the commit critical section — in
// O(1), rebased first onto a fresh snapshot when another commit landed in
// between (SnapshotLog).
type LazySnapshotMap[K comparable, V any] struct {
	al   *AbstractLock[K]
	log  *SnapshotLog[*conc.Ctrie[K, V], mapOp[K, V]]
	hash conc.Hasher[K]
}

var _ TxMap[int, int] = (*LazySnapshotMap[int, int])(nil)

// NewLazySnapshotMap creates a lazy Proustian map over a fresh Ctrie.
func NewLazySnapshotMap[K comparable, V any](s *stm.STM, lap LockAllocatorPolicy[K], hash conc.Hasher[K]) *LazySnapshotMap[K, V] {
	base := conc.NewCtrie[K, V](hash)
	return &LazySnapshotMap[K, V]{
		al:   NewAbstractLock(lap),
		log:  NewSnapshotLog(s, base, (*conc.Ctrie[K, V]).Snapshot, applyMapOp[K, V], (*conc.Ctrie[K, V]).Adopt),
		hash: hash,
	}
}

// Instrument attaches ADT-level observability: per-operation outcome counts
// plus the replay-log depth of each committing transaction.
func (m *LazySnapshotMap[K, V]) Instrument(name string, sink Sink) {
	m.al.Instrument(name, m.hash, sink)
	m.log.Instrument(name, sink)
}

// Put stores v under k, returning the previous value if any.
func (m *LazySnapshotMap[K, V]) Put(tx *stm.Txn, k K, v V) (V, bool) {
	in := W(k)
	m.al.begin1(tx, "put", in)
	old, had := m.log.Shadow(tx).Put(k, v)
	m.log.Append(tx, mapOp[K, V]{key: k, val: v, put: true})
	if !had {
		m.log.resize(tx, 1)
	}
	m.al.done1(tx, in)
	return old, had
}

// Get returns the value stored under k, consulting the transaction's shadow
// copy when one exists (the readOnly optimization otherwise reads the
// unmodified base directly).
func (m *LazySnapshotMap[K, V]) Get(tx *stm.Txn, k K) (V, bool) {
	in := R(k)
	m.al.begin1(tx, "get", in)
	v, ok := m.log.ReadView(tx).Get(k)
	m.al.done1(tx, in)
	return v, ok
}

// Contains reports whether k is present, without copying the value.
func (m *LazySnapshotMap[K, V]) Contains(tx *stm.Txn, k K) bool {
	in := R(k)
	m.al.begin1(tx, "contains", in)
	ok := m.log.ReadView(tx).Contains(k)
	m.al.done1(tx, in)
	return ok
}

// Remove deletes k, returning the previous value if any. A remove of an
// absent key mutates nothing and queues no record; as a transaction's first
// mutation it does not take the snapshot either.
func (m *LazySnapshotMap[K, V]) Remove(tx *stm.Txn, k K) (old V, had bool) {
	in := W(k)
	m.al.begin1(tx, "remove", in)
	if m.log.Logged(tx) || m.log.ReadView(tx).Contains(k) {
		if old, had = m.log.Shadow(tx).Remove(k); had {
			m.log.Append(tx, mapOp[K, V]{key: k})
			m.log.resize(tx, -1)
		}
	}
	m.al.done1(tx, in)
	return old, had
}

// Size returns the committed size.
func (m *LazySnapshotMap[K, V]) Size(tx *stm.Txn) int {
	return m.log.sizeOf(tx)
}

// LazyMemoMap is the lazy Proustian map with memoizing shadow copies (the
// paper's LazyHashMap over ConcurrentHashMap): pending operations live in a
// transaction-local overlay table, and the base map is only touched at
// commit. With combine=true the commit applies one synthetic update per
// touched key — the log-combining optimization of Figure 4 (bottom).
type LazyMemoMap[K comparable, V any] struct {
	al   *AbstractLock[K]
	log  *MemoLog[K, V]
	hash conc.Hasher[K]
}

var _ TxMap[int, int] = (*LazyMemoMap[int, int])(nil)

// NewLazyMemoMap creates a memoizing lazy Proustian map over a fresh
// striped-lock hash map.
func NewLazyMemoMap[K comparable, V any](s *stm.STM, lap LockAllocatorPolicy[K], hash conc.Hasher[K], combine bool) *LazyMemoMap[K, V] {
	base := conc.NewHashMap[K, V](hash)
	return &LazyMemoMap[K, V]{
		al:   NewAbstractLock(lap),
		log:  NewMemoLog[K, V](s, base, combine),
		hash: hash,
	}
}

// Instrument attaches ADT-level observability: per-operation outcome counts
// plus the replay-log depth of each committing transaction.
func (m *LazyMemoMap[K, V]) Instrument(name string, sink Sink) {
	m.al.Instrument(name, m.hash, sink)
	m.log.Instrument(name, sink)
}

// Put stores v under k, returning the previous value if any.
func (m *LazyMemoMap[K, V]) Put(tx *stm.Txn, k K, v V) (V, bool) {
	in := W(k)
	m.al.begin1(tx, "put", in)
	old, had := m.log.Put(tx, k, v)
	if !had {
		m.log.resize(tx, 1)
	}
	m.al.done1(tx, in)
	return old, had
}

// Get returns the value stored under k.
func (m *LazyMemoMap[K, V]) Get(tx *stm.Txn, k K) (V, bool) {
	in := R(k)
	m.al.begin1(tx, "get", in)
	v, ok := m.log.Get(tx, k)
	m.al.done1(tx, in)
	return v, ok
}

// Contains reports whether k is present; presence is answered from the
// overlay's presence bit or the base's containment check, never copying the
// value.
func (m *LazyMemoMap[K, V]) Contains(tx *stm.Txn, k K) bool {
	in := R(k)
	m.al.begin1(tx, "contains", in)
	ok := m.log.Contains(tx, k)
	m.al.done1(tx, in)
	return ok
}

// Remove deletes k, returning the previous value if any.
func (m *LazyMemoMap[K, V]) Remove(tx *stm.Txn, k K) (V, bool) {
	in := W(k)
	m.al.begin1(tx, "remove", in)
	old, had := m.log.Remove(tx, k)
	if had {
		m.log.resize(tx, -1)
	}
	m.al.done1(tx, in)
	return old, had
}

// Size returns the committed size.
func (m *LazyMemoMap[K, V]) Size(tx *stm.Txn) int {
	return m.log.sizeOf(tx)
}
