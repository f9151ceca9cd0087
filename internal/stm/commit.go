package stm

// commit attempts to commit the transaction through the backend's protocol.
// It returns false (after rolling back) if the transaction must be retried.
// commit never panics.
func (tx *Txn) commit() bool {
	return tx.s.backend.commit(tx)
}

// transitionCommitted flips the current attempt from active to committed,
// failing if a contention manager doomed the attempt first.
func (tx *Txn) transitionCommitted() bool {
	snap := tx.stateWord(statusActive)
	return tx.state.CompareAndSwap(snap, snap&^statusMask|statusCommitted)
}

// runCommitLocked applies deferred effects (Proust replay logs) inside the
// backend's commit critical section.
func (tx *Txn) runCommitLocked() {
	for _, f := range tx.onCommitLocked {
		f()
	}
}

// finishCommit runs after the backend publishes the commit: visible-reader
// registrations are dropped, OnCommit then OnRelease handlers run, and the
// commit is counted and traced.
func (tx *Txn) finishCommit() {
	tx.unregisterReaders()
	for _, f := range tx.onCommit {
		f()
	}
	tx.runReleases()
	tx.s.stats.Commits.Add(1)
	tx.traceCommit()
}

// runReleases runs the OnRelease handlers, the last hooks of an attempt.
func (tx *Txn) runReleases() {
	for _, f := range tx.onRelease {
		f()
	}
}

// Commit-time read-set validation lives in shard.go (validateCommit): the
// stamp decides whether the pass can be skipped.

// rollback undoes all transaction effects, innermost first: OnAbort
// handlers run in LIFO order (Proust inverses) while the attempt still owns
// everything it acquired, then the backend restores encounter-time writes
// and releases its locks, then OnRelease handlers drop what must outlive
// both (pessimistic abstract locks), then visible readers are deregistered;
// the abort is counted and traced. Theorem 5.2 needs exactly this: an
// inverse is applied under the abstract conflict, so no competitor can
// acquire mem[i] and read the base structure between the release and the
// inverse. Every caller invokes it exactly once per failed attempt.
func (tx *Txn) rollback(cause AbortCause) {
	snap := tx.state.Load()
	if snap&statusMask == statusActive {
		tx.state.CompareAndSwap(snap, snap&^statusMask|statusAborted)
	}

	for i := len(tx.onAbort) - 1; i >= 0; i-- {
		tx.onAbort[i]()
	}
	tx.s.backend.abort(tx)
	tx.runReleases()
	tx.unregisterReaders()

	tx.s.stats.countAbort(cause)
	tx.traceAbort(cause)
}
