package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// box wraps a committed (or, under encounter-time locking, tentative) value
// so the whole value can be published with a single pointer store.
type box struct {
	v any
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
// identity check rejects it (tentative boxes are never restored, so one
// cannot reappear).
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

// activeReaders returns the currently registered readers other than self,
// pruning entries whose transactions are no longer active.
func (r *baseRef) activeReaders(self *Txn) []*Txn {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	var out []*Txn
	for t := range r.readers {
		if t == self {
			continue
		}
		if t.status() != statusActive {
			delete(r.readers, t)
			continue
		}
		out = append(out, t)
	}
	return out
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
	r.b.value.Store(&box{v: init})
	return r
}

// Get reads the reference inside tx.
func (r *Ref[T]) Get(tx *Txn) T {
	v, ok := tx.read(&r.b).(T)
	if !ok {
		// A zero value stored as a nil interface, or a conflict-abstraction
		// token (SetSerialToken); normalize to the zero value.
		var zero T
		return zero
	}
	return v
}

// Set writes v to the reference inside tx.
func (r *Ref[T]) Set(tx *Txn, v T) {
	tx.write(&r.b, v)
}

// Touch adds the reference to the transaction's read set for commit-time
// validation even if the transaction has already written it. See
// Txn-internal touch for why Proust's lazy/optimistic wrappers need this.
func (r *Ref[T]) Touch(tx *Txn) {
	tx.touch(&r.b)
}

// SetSerialToken writes a token unique to the transaction's current attempt
// into r. Semantically it stands in for r.Set(tx, tx.Serial()): the paper
// only requires conflict-abstraction writes to carry unique values, and
// Proust never reads them back (a Get of a token-holding location returns
// the zero value). The token is allocated once per attempt no matter how
// many locations an operation writes — attempt-serial boxing was two heap
// allocations per write intent on the ADT hot path.
func SetSerialToken(tx *Txn, r *Ref[uint64]) {
	tx.write(&r.b, tx.serialToken())
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
		v, ok := b.v.(T)
		if !ok {
			var zero T
			return zero
		}
		return v
	}
}

// procYield is a cheap CPU-relax used inside spin loops.
func procYield() {
	runtime.Gosched()
}
