package stm

import "slices"

func init() {
	RegisterBackend(BackendFactory{
		Name:   "tl2",
		Policy: LazyLazy,
		Doc:    "TL2-style: redo log, commit-time locking in global ref order, lazy w/w and r/w detection",
		New:    func() Backend { return tl2Backend{} },
	})
}

// tl2Backend implements the LazyLazy policy: writes are buffered in the redo
// log and locked only at commit time, in global reference order; read-write
// conflicts are found by commit-time read-set validation (the TL2 family).
type tl2Backend struct{}

var _ Backend = tl2Backend{}

// Name implements Backend.
func (tl2Backend) Name() string { return "tl2" }

// Policy implements Backend.
func (tl2Backend) Policy() DetectionPolicy { return LazyLazy }

func (tl2Backend) begin(tx *Txn) {
	// Nothing to sample: the shard-clock vector is captured lazily, one
	// shard at a time, at each shard's first read (Txn.rvFor).
}

func (tl2Backend) read(tx *Txn, r *baseRef) any { return tx.readVersioned(r) }

func (tl2Backend) touch(tx *Txn, r *baseRef) { _ = tx.readVersioned(r) }

func (tl2Backend) write(tx *Txn, r *baseRef, v any) {
	tx.recordWrite(r, v)
}

func (tl2Backend) validate(tx *Txn) bool { return tx.validateReads() }

// refIDCmp orders refs by their global creation id (the commit-time lock
// order). Non-capturing, so slices.SortFunc stays allocation-free.
func refIDCmp(a, b *baseRef) int {
	switch {
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	default:
		return 0
	}
}

// commit implements the TL2-style commit: lock the write set in global
// reference order, fetch a commit timestamp, validate the read set, publish.
func (tl2Backend) commit(tx *Txn) bool {
	if tx.wset.len() == 0 && len(tx.onCommitLocked) == 0 {
		// Read-only fast path: each read was validated against the read
		// version (with extension), so the transaction is serializable at
		// its read version without further work.
		if !tx.transitionCommitted() {
			tx.rollback(CauseDoomed)
			return false
		}
		tx.finishCommit()
		return true
	}

	// Sort a scratch copy of the written refs into global id order (the
	// redo log itself keeps insertion order for publication and replay).
	// A lockForCommit failure leaves the PhaseLock interval open; the abort
	// emission charges it to the lock phase, which is the truthful
	// attribution for a lost commit-time acquisition.
	pp := tx.phaseEnter(PhaseLock)
	truncate(&tx.sortBuf)
	for i := range tx.wset.entries {
		tx.sortBuf = append(tx.sortBuf, tx.wset.entries[i].r)
	}
	if len(tx.sortBuf) > 1 {
		slices.SortFunc(tx.sortBuf, refIDCmp)
	}
	for _, r := range tx.sortBuf {
		if !tx.lockForCommit(r) {
			tx.rollback(CauseLockConflict)
			return false
		}
		tx.markLocked()
		tx.commitLocks = append(tx.commitLocks, r)
	}
	tx.phaseExit(pp)

	// Stamp the write shards (bumping the per-shard clocks); validateCommit
	// applies the per-shard generalization of the TL2 wv == rv+1
	// optimization — no walk unless a captured clock or the epoch moved.
	var p pubStamp
	tx.stampWrites(&p, tx.wset.shardMask())
	if !tx.validateCommit(&p) {
		tx.rollback(CauseValidation)
		return false
	}
	if !tx.transitionCommitted() {
		tx.rollback(CauseDoomed)
		return false
	}

	// The commit is now decided: apply deferred effects (Proust replay
	// logs) while the write set is still locked, then publish straight from
	// the redo-log entries — values ride inline, no second lookup. Values
	// and versions are published before any lock is released.
	pp = tx.phaseEnter(PhasePublish)
	tx.runCommitLocked()
	for i := range tx.wset.entries {
		e := &tx.wset.entries[i]
		e.r.value.Store(tx.newBox(e.val))
		e.r.version.Store(p.ver(e.r))
	}
	for i := range tx.wset.entries {
		tx.wset.entries[i].r.owner.Store(nil)
	}
	truncate(&tx.commitLocks)
	tx.observeLockHold()
	tx.phaseExit(pp)
	tx.finishCommit()
	return true
}

func (tl2Backend) abort(tx *Txn) { tx.releaseCommitLocks() }

// releaseCommitLocks frees refs locked during a failed lazy commit.
func (tx *Txn) releaseCommitLocks() {
	for _, r := range tx.commitLocks {
		r.owner.Store(nil)
	}
	truncate(&tx.commitLocks)
	tx.observeLockHold()
}

// lockForCommit acquires the commit-time write lock on r without panicking.
func (tx *Txn) lockForCommit(r *baseRef) bool {
	const budget = 1024
	for spins := 0; spins < budget; spins++ {
		if tx.status() != statusActive {
			return false
		}
		if r.owner.CompareAndSwap(nil, tx) {
			return true
		}
		owner := r.owner.Load()
		if owner == tx {
			return true
		}
		if owner != nil {
			snap := owner.stateSnapshot()
			if snap&statusMask == statusActive && tx.s.cmWins(tx, owner, snap) {
				doomTxn(owner, snap)
			}
		}
		procYield()
	}
	return false
}
