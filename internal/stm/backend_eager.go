package stm

func init() {
	RegisterBackend(BackendFactory{
		Name:   "eager",
		Policy: EagerEager,
		Doc:    "visible readers: encounter-time write locks plus reader registration, all conflicts detected eagerly",
		New:    func() Backend { return eagerBackend{} },
	})
}

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
	tx.registerReader(r)
	return tx.readVersioned(r)
}

func (b eagerBackend) touch(tx *Txn, r *baseRef) { _ = b.read(tx, r) }

func (eagerBackend) write(tx *Txn, r *baseRef, v any) {
	if tx.updateOwnedWrite(r, v) {
		return
	}
	tx.acquire(r)
	tx.arbitrateReaders(r)
	tx.logUndoAndWrite(r, v)
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
func (tx *Txn) arbitrateReaders(r *baseRef) {
	readers := r.activeReaders(tx)
	for _, rd := range readers {
		snap := rd.stateSnapshot()
		if snap&statusMask != statusActive {
			continue
		}
		if tx.s.cmInvalidatesReader(tx, rd, snap) {
			doomTxn(rd, snap)
			continue
		}
		// Reader wins: abort ourselves. The write is logged only after
		// arbitration, so r is not in tx.owned yet and rollback would not
		// release it.
		r.owner.Store(nil)
		tx.conflict(CauseLockConflict)
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
