package stm

// ccstmBackend implements the MixedEagerWWLazyRW policy: write locks are
// acquired at encounter time with an undo log (eager w/w detection), readers
// stay invisible and the read set is validated at commit (lazy r/w
// detection). This matches CCSTM, the default ScalaSTM backend used in the
// paper's evaluation, and is this package's default backend.
type ccstmBackend struct{}

var _ Backend = ccstmBackend{}

// Name implements Backend.
func (ccstmBackend) Name() string { return "ccstm" }

// Policy implements Backend.
func (ccstmBackend) Policy() DetectionPolicy { return MixedEagerWWLazyRW }

func (ccstmBackend) begin(tx *Txn) {
	// Nothing to sample: the shard-clock vector is captured lazily, one
	// shard at a time, at each shard's first read (Txn.rvFor).
}

func (ccstmBackend) read(tx *Txn, r *baseRef) any { return tx.readVersioned(r) }

func (ccstmBackend) touch(tx *Txn, r *baseRef) { _ = tx.readVersioned(r) }

func (ccstmBackend) write(tx *Txn, r *baseRef, b *box) {
	if tx.updateOwnedWrite(r, b) {
		return
	}
	tx.acquire(r)
	tx.logUndoAndWrite(r, b)
}

func (ccstmBackend) validate(tx *Txn) bool { return tx.validateReads() }

func (ccstmBackend) commit(tx *Txn) bool { return tx.commitEncounter(true) }

func (ccstmBackend) abort(tx *Txn) { tx.restoreUndoAndRelease() }
