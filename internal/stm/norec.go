package stm

import (
	"sync/atomic"
	"time"
)

func init() {
	RegisterBackend(BackendFactory{
		Name:   "norec",
		Policy: NOrec,
		Doc:    "NOrec: no per-ref metadata, one global sequence lock, value-based validation",
		New:    func() Backend { return &norecBackend{} },
	})
}

// norecBackend implements Dalessandro, Spear and Scott's NOrec ("No
// Ownership Records", PPoPP 2010), one of the STMs in the paper's Figure 1
// classification (lazy w/w, lazy r/w) and the subject of its future-work
// remark that "the Proust methodology could be implemented as a framework
// for other STMs".
//
// NOrec keeps no per-location metadata at all: a single global sequence lock
// (owned by this backend, one per STM instance) orders writers, and readers
// validate *values* instead of versions. Because every committed write
// installs a fresh box, pointer identity of the box doubles as value
// validation without requiring comparable value types. The transaction's
// sequence snapshot lives in its own Txn field (Txn.snapshot), disjoint from
// the read-version vector of the TL2-lineage backends. Whenever the sequence
// has moved, the whole read log is revalidated by value.
//
// Proust integration is unchanged: OnCommitLocked runs while the global
// sequence lock is held — NOrec's "native locking mechanism" — so replay
// logs apply atomically with the commit, and Ref.Touch records a read-log
// entry that commit-time validation checks, exactly as Theorem 5.3 needs.
type norecBackend struct {
	seq atomic.Uint64 // global sequence lock (even = stable)
}

var _ Backend = (*norecBackend)(nil)

// Name implements Backend.
func (*norecBackend) Name() string { return "norec" }

// Policy implements Backend.
func (*norecBackend) Policy() DetectionPolicy { return NOrec }

// begin samples a stable (even) sequence number into the transaction's
// snapshot.
func (b *norecBackend) begin(tx *Txn) {
	tx.snapshot = b.stableSeq()
}

// stableSeq waits until the sequence lock is free (even) and returns it.
func (b *norecBackend) stableSeq() uint64 {
	for {
		if s := b.seq.Load(); s&1 == 0 {
			return s
		}
		procYield()
	}
}

// read performs a NOrec read: consistent against the global sequence, with
// full value revalidation whenever the sequence has moved.
func (b *norecBackend) read(tx *Txn, r *baseRef) any {
	pp := tx.phaseEnter(PhaseRead)
	for {
		bx := r.value.Load()
		s := b.seq.Load()
		if s&1 == 1 {
			procYield()
			continue
		}
		if s != tx.snapshot {
			if !b.validate(tx) {
				tx.conflict(CauseValidation)
			}
			tx.snapshot = s
			continue // re-read under the new snapshot
		}
		tx.logRead(r, 0, bx)
		tx.phaseExit(pp)
		return bx.v
	}
}

func (b *norecBackend) touch(tx *Txn, r *baseRef) { _ = b.read(tx, r) }

// write buffers v in the redo log (lazy w/w, like tl2).
func (*norecBackend) write(tx *Txn, r *baseRef, v any) {
	tx.recordWrite(r, v)
}

// validate waits for a stable sequence and value-checks the whole read log,
// advancing the snapshot on success; the check is retried if a writer
// committed while it ran.
func (b *norecBackend) validate(tx *Txn) bool {
	pp := tx.phaseEnter(PhaseValidate)
	ok := b.validateValues(tx)
	tx.phaseExit(pp)
	return ok
}

// validateValues is the validation pass proper (the validate wrapper only
// attributes it to PhaseValidate; the bracket nests inside PhaseRead or
// PhaseStamp and the token model restores the outer phase).
func (b *norecBackend) validateValues(tx *Txn) bool {
	for {
		s := b.stableSeq()
		for i := range tx.reads {
			re := &tx.reads[i]
			if re.r.value.Load() != re.box {
				return false
			}
		}
		if b.seq.Load() == s {
			tx.snapshot = s
			return true
		}
	}
}

// validateTimed is the commit-time validation pass, recorded in the
// ValidationTime histogram on sampled attempts.
func (b *norecBackend) validateTimed(tx *Txn) bool {
	if !tx.sampled {
		return b.validate(tx)
	}
	t0 := time.Now()
	ok := b.validate(tx)
	tx.s.stats.ValidationTime.observe(time.Since(t0))
	return ok
}

// commit implements the NOrec commit: spin-acquire the global sequence lock
// from the transaction's snapshot, revalidating on every miss; then publish
// the redo log and release.
func (b *norecBackend) commit(tx *Txn) bool {
	if tx.wset.len() == 0 && len(tx.onCommitLocked) == 0 {
		// Read-only transactions are always consistent at their snapshot.
		if !tx.transitionCommitted() {
			tx.rollback(CauseDoomed)
			return false
		}
		tx.finishCommit()
		return true
	}
	// The sequence-lock spin is NOrec's equivalent of the clock bump: time
	// spent losing the CAS (and revalidating) is serialization wait.
	pp := tx.phaseEnter(PhaseStamp)
	for !b.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		if !b.validateTimed(tx) {
			tx.rollback(CauseValidation)
			return false
		}
	}
	// Sequence lock held (odd): no reader returns and no writer commits
	// until we release.
	tx.markLocked()
	tx.phaseExit(pp)
	if !tx.transitionCommitted() {
		b.seq.Store(tx.snapshot + 2)
		tx.rollback(CauseDoomed)
		return false
	}
	pp = tx.phaseEnter(PhasePublish)
	tx.runCommitLocked()
	for i := range tx.wset.entries {
		e := &tx.wset.entries[i]
		e.r.value.Store(tx.newBox(e.val))
		e.r.version.Store(tx.snapshot + 2)
	}
	b.seq.Store(tx.snapshot + 2)
	tx.observeLockHold()
	tx.phaseExit(pp)
	tx.finishCommit()
	return true
}

// abort releases nothing: NOrec holds no per-ref locks, and the commit path
// releases the sequence lock itself before rolling back.
func (*norecBackend) abort(tx *Txn) { tx.observeLockHold() }
