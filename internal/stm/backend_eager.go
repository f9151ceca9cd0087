package stm

import "time"

// eagerBackend implements the EagerEager policy: write locks are acquired at
// encounter time, and every read registers the transaction as a visible
// reader, so a writer detects and arbitrates read-write conflicts the moment
// it acquires the reference. All conflicts are detected eagerly, which is
// the STM requirement of Theorem 5.2 (Eager/Optimistic Proust is opaque).
type eagerBackend struct{}

var _ Backend = eagerBackend{}

// Name implements Backend.
func (eagerBackend) Name() string { return "eager" }

// Policy implements Backend.
func (eagerBackend) Policy() DetectionPolicy { return EagerEager }

func (eagerBackend) begin(tx *Txn) {
	// Nothing to sample: the shard-clock vector is captured lazily, one
	// shard at a time, at each shard's first read (Txn.rvFor).
}

func (eagerBackend) read(tx *Txn, r *baseRef) any {
	// Register visibly before sampling the version: any writer that
	// acquires r after this point will arbitrate against us, so committed
	// writes can never invalidate our read set silently (which is why this
	// backend skips commit-time validation).
	// A doomed reader stops here rather than reading on: writers that doomed
	// it wait for its rollback (arbitrateReaders).
	tx.checkAlive()
	tx.registerReader(r)
	return tx.readVersioned(r)
}

func (b eagerBackend) touch(tx *Txn, r *baseRef) { _ = b.read(tx, r) }

func (eagerBackend) write(tx *Txn, r *baseRef, b *box) {
	if tx.updateOwnedWrite(r, b) {
		return
	}
	tx.acquire(r)
	tx.arbitrateReaders(r)
	tx.logUndoAndWrite(r, b)
}

func (eagerBackend) validate(tx *Txn) bool { return tx.validateReads() }

func (eagerBackend) commit(tx *Txn) bool { return tx.commitEncounter(false) }

func (eagerBackend) abort(tx *Txn) { tx.restoreUndoAndRelease() }

// registerReader adds tx to r's visible-reader table. Repeat reads of the
// same ref are deduplicated without any per-transaction map: the ref carries
// an attempt-stamped marker (lastReader) that short-circuits re-registration,
// and because attempt serials are never reused, a marker overwritten by a
// concurrent reader merely falls through to addReader, whose reader table is
// the authoritative (idempotent) dedup. Read-mostly eager transactions
// therefore allocate nothing.
func (tx *Txn) registerReader(r *baseRef) {
	if r.lastReader.Load() == tx.id {
		return
	}
	if r.addReader(tx) {
		tx.visible = append(tx.visible, r)
	}
	r.lastReader.Store(tx.id)
}

// arbitrateReaders resolves read-write conflicts eagerly: tx holds the write
// lock on r and must either doom every visible reader or abort itself.
//
// A doomed (or otherwise aborted) reader may already have changed base state
// under the conflict abstraction it read r for — an NNCounter increment, say
// — and undoes that only in its rollback, which runs its OnAbort inverses
// before it deregisters from r. So tx waits until each such reader has left
// r's table: going on earlier would let tx act on an effect whose inverse is
// still pending. A doomed reader observes its doom, or gives up, on every STM
// path that could wait for tx (acquiring or reading a ref tx owns checks it on
// each spin, abstract-lock waits time out, and its own waits here check it),
// and tx leaves its wait, releasing r, once tx is doomed itself. A reader
// blocked outside the STM — in its body, on tx's own completion, say — never
// rolls back while tx waits, so the wait is bounded by doomedReaderWait,
// after which tx goes on as if the reader had left.
func (tx *Txn) arbitrateReaders(r *baseRef) {
	readers := r.otherReaders(tx)
	for _, rd := range readers {
		snap := rd.stateSnapshot()
		if snap&statusMask != statusActive {
			continue
		}
		if !tx.s.cmInvalidatesReader(tx, rd, snap) {
			// Reader wins: abort ourselves. The write is logged only after
			// arbitration, so r is not in tx.owned yet and rollback would not
			// release it.
			r.owner.Store(nil)
			tx.conflict(CauseLockConflict)
		}
		doomTxn(rd, snap)
	}
	// Doom first, then wait: the doomed readers roll back side by side.
	for _, rd := range readers {
		if snap := rd.stateSnapshot(); snap&statusMask == statusAborted {
			tx.awaitReaderRollback(r, rd, snap)
		}
	}
}

// doomedReaderWait bounds how long a writer waits for a doomed reader's
// rollback (see arbitrateReaders). A running reader rolls back within
// microseconds; the bound only matters for one blocked in its body.
const doomedReaderWait = 100 * time.Millisecond

// awaitReaderRollback waits until rd's aborted attempt (state word snap) has
// deregistered from r, rd has moved on to another attempt, or
// doomedReaderWait has passed. If tx is doomed meanwhile it releases r and
// unwinds.
func (tx *Txn) awaitReaderRollback(r *baseRef, rd *Txn, snap uint64) {
	var deadline time.Time
	for rd.stateSnapshot() == snap && r.listsReader(rd) {
		if tx.status() == statusAborted {
			r.owner.Store(nil)
			tx.conflict(CauseDoomed)
		}
		if now := time.Now(); deadline.IsZero() {
			deadline = now.Add(doomedReaderWait)
		} else if now.After(deadline) {
			return
		}
		procYield()
	}
}

// unregisterReaders drops all visible-reader registrations of the attempt.
// It is called on both commit and abort and is a no-op for the other
// backends (the registration slices stay empty). Every ref where addReader
// inserted tx is in tx.visible exactly once, so a released descriptor is
// never left behind in any reader table.
func (tx *Txn) unregisterReaders() {
	for _, r := range tx.visible {
		r.removeReader(tx)
	}
	truncate(&tx.visible)
}
