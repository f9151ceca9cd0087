package stm

import "time"

// Shared machinery of the versioned (TL2-lineage) backends: tl2, ccstm and
// eager all stamp refs against the sharded timebase (per-shard commit
// clocks, see shard.go), keep an invisible or visible read set validated
// against the transaction's shard-clock vector, and lock refs through the
// owner word.

// readVersioned performs an opaque versioned read of r's committed (or, if
// tx itself holds the encounter-time lock, tentative) value and records a
// read-set entry. The read version it checks against is the clock of r's
// shard, captured lazily at the shard's first touch (rvFor), so commits in
// other shards — or in this shard before its first touch — never force an
// extension.
func (tx *Txn) readVersioned(r *baseRef) any {
	pp := tx.phaseEnter(PhaseRead)
	rv := tx.rvFor(r)
	for spins := 0; ; spins++ {
		v1 := r.version.Load()
		owner := r.owner.Load()
		if owner != nil && owner != tx {
			tx.resolveRead(r, owner, spins)
			continue
		}
		b := r.value.Load()
		if !r.holds(v1, b, tx) {
			continue
		}
		if v1 > rv {
			if !tx.extend() {
				tx.conflict(CauseValidation)
			}
			// The extension validated the prior reads at the new vector, but
			// this ref may have moved again in the meantime: loop and
			// re-read it under the extended read version rather than
			// returning a value sampled before the extension.
			rv = tx.rvVec[r.shard]
			continue
		}
		tx.logRead(r, v1, nil)
		tx.phaseExit(pp)
		return b.v
	}
}

// resolveRead handles finding r locked by another transaction during a read.
func (tx *Txn) resolveRead(r *baseRef, owner *Txn, spins int) {
	snap := owner.stateSnapshot()
	if snap&statusMask == statusActive && tx.s.cmWins(tx, owner, snap) {
		doomTxn(owner, snap)
	}
	tx.waitOrDie(r, owner, spins)
}

// waitOrDie spins briefly waiting for ownership of r to change; past the
// spin budget it aborts tx.
func (tx *Txn) waitOrDie(r *baseRef, owner *Txn, spins int) {
	const spinBudget = 256
	if spins > spinBudget {
		tx.conflict(CauseLockConflict)
	}
	for i := 0; i < 32; i++ {
		if r.owner.Load() != owner {
			return
		}
		procYield()
	}
}

// validateReads checks every read-set entry's version and ownership.
func (tx *Txn) validateReads() bool {
	for i := range tx.reads {
		re := &tx.reads[i]
		o := re.r.owner.Load()
		if o != nil && o != tx {
			return false
		}
		if re.r.version.Load() != re.ver {
			return false
		}
	}
	return true
}

// validateReadsTimed is validateReads with the commit-time ValidationTime
// histogram sampling applied.
func (tx *Txn) validateReadsTimed() bool {
	if !tx.sampled {
		return tx.validateReads()
	}
	t0 := time.Now()
	ok := tx.validateReads()
	tx.s.stats.ValidationTime.observe(time.Since(t0))
	return ok
}

// acquire takes the write lock on r at encounter time, arbitrating with the
// contention manager.
func (tx *Txn) acquire(r *baseRef) {
	// A conflict panic out of checkAlive/waitOrDie skips the phaseExit; the
	// open PhaseLock interval is then charged to the lock phase by the abort
	// emission, which is the truthful attribution for a lost acquisition.
	pp := tx.phaseEnter(PhaseLock)
	for spins := 0; ; spins++ {
		tx.checkAlive()
		if r.owner.CompareAndSwap(nil, tx) {
			tx.markLocked()
			tx.phaseExit(pp)
			return
		}
		owner := r.owner.Load()
		if owner == nil || owner == tx {
			if owner == tx {
				tx.phaseExit(pp)
				return
			}
			continue
		}
		snap := owner.stateSnapshot()
		if snap&statusMask == statusActive && tx.s.cmWins(tx, owner, snap) {
			doomTxn(owner, snap)
		}
		tx.waitOrDie(r, owner, spins)
	}
}

// updateOwnedWrite overwrites a ref the transaction already owns (it is in
// the redo log, so the encounter lock is held). Reports whether r was owned.
//
// The box currently installed is this transaction's own tentative box (put
// there by logUndoAndWrite); every other transaction checks the owner word
// after loading the value and discards anything read while the encounter
// lock is held, and the lock is only released after commit publication or
// after the abort path restores the previous box. The tentative box can
// therefore be updated in place instead of allocating a fresh one per
// repeat write — except when the installed box is the shared token box,
// which other refs may alias (see newBox).
func (tx *Txn) updateOwnedWrite(r *baseRef, v any) bool {
	i := tx.wset.find(r)
	if i < 0 {
		return false
	}
	tx.wset.entries[i].val = v
	if b := r.value.Load(); b != tx.tokenBox {
		b.v = v
	} else {
		r.value.Store(tx.newBox(v))
	}
	return true
}

// logUndoAndWrite installs the tentative value under the encounter lock,
// saving the previous box for rollback.
func (tx *Txn) logUndoAndWrite(r *baseRef, v any) {
	tx.undo = append(tx.undo, undoEntry{r: r, oldVal: r.value.Load()})
	tx.owned = append(tx.owned, r)
	tx.recordWrite(r, v)
	r.value.Store(tx.newBox(v))
}

// restoreUndoAndRelease rolls back encounter-time writes: tentative values
// are restored before ownership is released so that no reader can observe an
// uncommitted value. Shared abort path of the ccstm and eager backends.
func (tx *Txn) restoreUndoAndRelease() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		e := tx.undo[i]
		e.r.value.Store(e.oldVal)
	}
	truncate(&tx.undo)
	for _, r := range tx.owned {
		r.owner.Store(nil)
	}
	truncate(&tx.owned)
	tx.observeLockHold()
}

// commitEncounter finishes a commit under encounter-time locking: the write
// set is already locked and contains tentative values; only validation
// (when readers are invisible) and version publication remain.
func (tx *Txn) commitEncounter(validate bool) bool {
	if len(tx.owned) == 0 && len(tx.onCommitLocked) == 0 {
		if !tx.transitionCommitted() {
			tx.rollback(CauseDoomed)
			return false
		}
		tx.finishCommit()
		return true
	}

	var p pubStamp
	tx.stampWrites(&p, shardMaskOf(tx.owned))
	if validate {
		// Invisible readers: read-write conflicts are detected here.
		if !tx.validateCommit(&p) {
			tx.rollback(CauseValidation)
			return false
		}
	}
	// With visible readers no commit-time validation is needed: a writer of
	// anything in our read set must have arbitrated against us (we
	// registered as a reader before reading), so either it aborted or we
	// are already doomed and the transition below fails.
	if !tx.transitionCommitted() {
		tx.rollback(CauseDoomed)
		return false
	}

	pp := tx.phaseEnter(PhasePublish)
	tx.runCommitLocked()
	// Publish all versions first, then release the locks.
	for _, r := range tx.owned {
		r.version.Store(p.ver(r))
	}
	for _, r := range tx.owned {
		r.owner.Store(nil)
	}
	truncate(&tx.owned)
	truncate(&tx.undo)
	tx.observeLockHold()
	tx.phaseExit(pp)
	tx.finishCommit()
	return true
}

// shardMaskOf returns the bitmask of shards covered by a set of refs.
func shardMaskOf(refs []*baseRef) uint64 {
	var m uint64
	for _, r := range refs {
		m |= 1 << r.shard
	}
	return m
}
