package stm

import "sync"

// TxnLocal is transaction-local storage: each transaction attempt sees its
// own value, lazily created by the initializer on first access and discarded
// when the attempt ends. Proust replay logs live in TxnLocals, mirroring
// ScalaSTM's TxnLocal used by ScalaProust ("ReplayLog.construct returns a
// TxnLocal that allocates a new log the first time the Map is written during
// each transaction", Figure 2b).
type TxnLocal[T any] struct {
	init func(tx *Txn) T
}

// NewTxnLocal creates a transaction-local slot with the given initializer.
func NewTxnLocal[T any](init func(tx *Txn) T) *TxnLocal[T] {
	return &TxnLocal[T]{init: init}
}

// Get returns the transaction's value for this slot, initializing it on
// first access within the current attempt.
func (l *TxnLocal[T]) Get(tx *Txn) T {
	if tx.locals == nil {
		tx.locals = make(map[any]any, 4)
	}
	if v, ok := tx.locals[l]; ok {
		vt, _ := v.(T)
		return vt
	}
	v := l.init(tx)
	tx.locals[l] = v
	return v
}

// Peek returns the transaction's value for this slot without initializing.
func (l *TxnLocal[T]) Peek(tx *Txn) (T, bool) {
	if tx.locals == nil {
		var zero T
		return zero, false
	}
	v, ok := tx.locals[l]
	if !ok {
		var zero T
		return zero, false
	}
	vt, _ := v.(T)
	return vt, true
}

// Set overwrites the transaction's value for this slot.
func (l *TxnLocal[T]) Set(tx *Txn, v T) {
	if tx.locals == nil {
		tx.locals = make(map[any]any, 4)
	}
	tx.locals[l] = v
}

// Pooled is a TxnLocal whose per-attempt values are drawn from a sync.Pool
// instead of allocated fresh: the Proust ADT logs (typed undo records, replay
// logs, held-stripe sets) live in Pooled slots so a steady-state transaction
// appends into warm backing storage. attach runs on each first Get of an
// attempt with the drawn value; it must register the OnCommit/OnAbort (or
// OnCommitLocked, OnRelease) hooks that consume the value and eventually
// hand it back via Release. The caller owns the reset discipline: a value must be
// indistinguishable from `new(T)` by the time it is Released (same contract
// as the descriptor pool's reset, DESIGN.md §9).
type Pooled[T any] struct {
	pool  sync.Pool
	local *TxnLocal[*T]
}

// NewPooled creates a pooled transaction-local slot.
func NewPooled[T any](attach func(tx *Txn, v *T)) *Pooled[T] {
	p := &Pooled[T]{}
	p.local = NewTxnLocal(func(tx *Txn) *T {
		v, _ := p.pool.Get().(*T)
		if v == nil {
			v = new(T)
		}
		attach(tx, v)
		return v
	})
	return p
}

// Get returns the attempt's value, drawing from the pool on first access.
func (p *Pooled[T]) Get(tx *Txn) *T { return p.local.Get(tx) }

// Peek returns the attempt's value without initializing.
func (p *Pooled[T]) Peek(tx *Txn) (*T, bool) { return p.local.Peek(tx) }

// Release returns a value (reset by the caller) to the pool. Call exactly
// once per attached value, from the hook that finishes its lifecycle.
func (p *Pooled[T]) Release(v *T) { p.pool.Put(v) }
