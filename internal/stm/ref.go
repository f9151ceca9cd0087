package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// box wraps a committed (or, under encounter-time locking, tentative) value
// so the whole value can be published with a single pointer store. Every box
// but the shared serial token (serialToken) is the head of a cell, and its v
// points at the cell's value.
type box struct {
	v any
}

// cell is the one allocation behind a written value: the box and the value
// it points at share one object, so publication allocates nothing and a read
// dereferences into the line it already loaded. A cell is mutable only while
// it sits in its writer's redo log (Ref.Set updates it in place on a repeat
// write); once the attempt commits or aborts it is never written again.
type cell[T any] struct {
	b box
	v T
}

// newCell returns the box of a fresh cell holding v.
func newCell[T any](v T) *box {
	c := &cell[T]{v: v}
	c.b.v = &c.v
	return &c.b
}

// baseRef is the untyped core of a transactional reference.
type baseRef struct {
	s  *STM
	id uint64
	// shard is the timebase shard this ref stamps against, derived from id
	// in blocks of 2^shardBlockBits consecutive ids (see STM.shardOf).
	// Immutable after NewRef.
	shard   uint32
	version atomic.Uint64
	owner   atomic.Pointer[Txn]
	value   atomic.Pointer[box]

	// hist is the mvcc backend's bounded, newest-first chain of displaced
	// versions: hist holds the version the current value superseded, its next
	// the one before, and so on. Writers mutate the chain only while holding
	// r's owner lock; snapshot readers traverse it lock-free under an epoch
	// pin (nodes are pooled through the conc EBR facility, see
	// backend_mvcc.go). Always nil under the other backends.
	hist atomic.Pointer[mvccVerNode]

	// Visible readers (EagerEager policy only).
	rmu     sync.Mutex
	readers map[*Txn]struct{}
	// lastReader caches the attempt serial of the most recent visible-reader
	// registration: a transaction whose current attempt serial matches skips
	// the registration mutex on repeat reads. Attempt serials are globally
	// unique and never reused, so a stale or torn value can only cause a
	// harmless re-check under rmu.
	lastReader atomic.Uint64
}

// holds reports whether r still holds box b at version v1, unowned or
// owned by self — the re-check of a read that loaded v1, found no foreign
// owner and then loaded b. Owner and version alone do not bracket the
// value: an aborting encounter-time writer restores the previous box
// without moving the version, so a box it installed after the first
// owner check and withdrew before the second would pass both. The box
// identity check rejects it: a tentative cell is never restored, so it
// cannot reappear, and the shared serial token can reappear unowned at v1
// only if it is the box committed at v1, whose value is then the one read.
func (r *baseRef) holds(v1 uint64, b *box, self *Txn) bool {
	o := r.owner.Load()
	return (o == nil || o == self) && r.version.Load() == v1 && r.value.Load() == b
}

// addReader inserts tx into r's visible-reader table, reporting whether the
// registration is new (false when tx was already registered this attempt).
func (r *baseRef) addReader(tx *Txn) bool {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if r.readers == nil {
		r.readers = make(map[*Txn]struct{}, 4)
	}
	if _, ok := r.readers[tx]; ok {
		return false
	}
	r.readers[tx] = struct{}{}
	return true
}

func (r *baseRef) removeReader(tx *Txn) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	delete(r.readers, tx)
}

// otherReaders returns the registered readers other than self, pruning
// committed ones (their effects are final). An aborted reader stays listed
// until its own rollback deregisters it, after its inverses have run.
func (r *baseRef) otherReaders(self *Txn) []*Txn {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	var out []*Txn
	for t := range r.readers {
		if t == self {
			continue
		}
		if t.status() == statusCommitted {
			delete(r.readers, t)
			continue
		}
		out = append(out, t)
	}
	return out
}

// listsReader reports whether tx is in r's visible-reader table.
func (r *baseRef) listsReader(tx *Txn) bool {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	_, ok := r.readers[tx]
	return ok
}

// Ref is a transactional reference holding a value of type T. Refs are
// created with NewRef against a specific STM instance and may only be
// accessed by transactions of that instance (or via the non-transactional
// Load, which performs a single linearizable read).
type Ref[T any] struct {
	b baseRef
}

// NewRef creates a transactional reference with the given initial value.
func NewRef[T any](s *STM, init T) *Ref[T] {
	r := &Ref[T]{}
	r.b.s = s
	r.b.id = s.refIDs.Add(1)
	r.b.shard = s.shardOf(r.b.id)
	r.b.value.Store(newCell(init))
	return r
}

// Get reads the reference inside tx.
func (r *Ref[T]) Get(tx *Txn) T {
	return cellValue[T](tx.read(&r.b))
}

// cellValue dereferences a box's value pointer. Anything that is not a *T —
// the shared conflict-abstraction token (SetSerialToken) or a nil
// interface — reads as the zero value.
func cellValue[T any](v any) T {
	if p, ok := v.(*T); ok {
		return *p
	}
	var zero T
	return zero
}

// Set writes v to the reference inside tx. A repeat write within one attempt
// stores into the cell the first one made, so it allocates nothing.
func (r *Ref[T]) Set(tx *Txn, v T) {
	if b := tx.writtenBox(&r.b); b != nil {
		if p, ok := b.v.(*T); ok {
			*p = v
			return
		}
	}
	tx.write(&r.b, newCell(v))
}

// Touch adds the reference to the transaction's read set for commit-time
// validation even if the transaction has already written it. See
// Txn-internal touch for why Proust's lazy/optimistic wrappers need this.
func (r *Ref[T]) Touch(tx *Txn) {
	tx.touch(&r.b)
}

// SetSerialToken writes the conflict-abstraction token into r. It stands in
// for r.Set(tx, tx.Serial()) and allocates nothing: every write publishes
// the one shared token, and validation sees the write through the version
// the commit stamps on r (see serialToken). Proust never reads tokens back:
// a Get of a token-holding location returns the zero value.
func SetSerialToken(tx *Txn, r *Ref[uint64]) {
	tx.write(&r.b, serialToken)
}

// Modify applies f to the current value inside tx and stores the result.
func (r *Ref[T]) Modify(tx *Txn, f func(T) T) {
	r.Set(tx, f(r.Get(tx)))
}

// Load performs a non-transactional linearizable read of the committed
// value. It never observes a value written by an uncommitted transaction.
func (r *Ref[T]) Load() T {
	for {
		v1 := r.b.version.Load()
		if r.b.owner.Load() != nil {
			runtime.Gosched()
			continue
		}
		b := r.b.value.Load()
		if !r.b.holds(v1, b, nil) {
			continue
		}
		return cellValue[T](b.v)
	}
}

// procYield is a cheap CPU-relax used inside spin loops.
func procYield() {
	runtime.Gosched()
}
