package stm

import (
	"context"
	"sync/atomic"
	"time"
)

// Transaction status values, stored in the low two bits of Txn.state. Bit 2
// marks a serial (escalated) attempt; bits 3..39 hold the attempt number and
// bits 40..63 the descriptor's incarnation, so that a contention manager that
// dooms a transaction based on a stale observation cannot kill a later
// attempt of the same transaction — and, because the serial bit changes the
// word, cannot kill an attempt that escalated after the observation either.
//
// The incarnation bits make descriptor pooling invisible to contention
// managers: a doom CAS armed against one incarnation of a pooled descriptor
// can never land on a later transaction that reuses it, because releaseTxn
// bumps the incarnation and every state word carries it. (The incarnation
// wraps at 2^24 reuses; a collision additionally requires identical attempt
// number and an arbitrarily stale observation, and its worst case is one
// spurious conflict abort.)
const (
	statusActive    = 1
	statusCommitted = 2
	statusAborted   = 3

	statusMask    = 0x3
	stateSerial   = 0x4
	stateIncShift = 40
)

// signals raised (via panic) inside a transaction body.
type txnSignal int

const (
	sigNone txnSignal = iota
	sigConflict
	sigRetry
)

type conflictSignal struct{ cause AbortCause }

type retrySignal struct{}

type readEntry struct {
	r   *baseRef
	ver uint64
}

type undoEntry struct {
	r      *baseRef
	oldVal *box
}

// Txn is a transaction descriptor. A Txn is created by Atomically and must
// not be used outside the function it was passed to, nor from other
// goroutines.
//
// Descriptors are pooled per STM instance: Atomically draws one from the
// pool, runs the transaction, and releaseTxn hands it back fully reset, so
// the steady-state hot path allocates no descriptor, no log arrays and no
// maps. Fields that other goroutines may read through a stale pointer (a
// contention manager arbitrating against a just-recycled owner) are atomic:
// state and birth. Everything else is owner-goroutine only.
//
// The descriptor is shared by all backends: the redo log (wset) and read set
// are policy-agnostic machinery, while the remaining fields are each owned
// by the backend family annotated on them and untouched by the others.
type Txn struct {
	s     *STM
	birth atomic.Uint64 // serial of the first attempt; contention-manager priority
	id    uint64        // serial of the current attempt; unique write token

	state atomic.Uint64 // incarnation<<40 | attempt<<3 | serial-bit | status

	// incarnation counts reuses of this descriptor; it is stamped into every
	// state word so stale doom CASes can never cross a pool reuse.
	incarnation uint32

	// rvVec is the per-shard read-version vector of the versioned backends
	// (tl2, ccstm, eager, mvcc): rvVec[s] is the shard-s commit clock
	// captured at the transaction's first touch of shard s (all shards at
	// once for an mvcc snapshot). It is allocated once per descriptor (sized
	// to the instance's shard count) and retained across pool reuse — stale
	// values are unreachable because shardSeen gates every read.
	rvVec     []uint64
	shardSeen uint64 // bitmask of shards captured into rvVec this attempt
	epochSeen uint64 // global epoch at first capture (cross-shard fence)
	snapshot  uint64 // norec backend: global sequence-lock snapshot (even)

	reads []readEntry

	wset        writeSet    // redo log: inline entries, insertion-ordered
	sortBuf     []*baseRef  // commit-time lock-order scratch (tl2 backend)
	undo        []undoEntry // encounter-time backends, in acquisition order
	owned       []*baseRef  // refs whose owner == tx (encounter-time backends)
	commitLocks []*baseRef  // refs locked during a lazy commit (tl2 backend)
	visible     []*baseRef  // refs where tx is a visible reader (eager backend)

	lockStart int64 // first write-lock acquisition, ns since s.epoch (LockHold histogram)

	locals map[any]any // TxnLocal storage; retained across reuse, cleared per attempt

	onAbort        []func() // run LIFO on abort (inverse operations)
	onCommit       []func() // run FIFO after the commit completes
	onCommitLocked []func() // run FIFO inside the commit critical section
	onRelease      []func() // run FIFO last, after commit or abort

	// Phase-level span timing (phase.go): per-phase nanosecond buckets, the
	// attempt's start and the open interval's start (both s.sinceEpoch based),
	// the current phase and the armed flag. Owner goroutine only; armed per
	// attempt by phaseBegin only when the attempt is sampled and the attached
	// tracer implements PhaseTracer, so untraced runs pay one branch per
	// bracket site.
	phaseNS    [NumPhases]int64
	phaseStart int64
	phaseT     int64
	phaseCur   Phase
	phaseOn    bool

	// readOnly marks a transaction declared via the WithReadOnly hint: the
	// body performs no writes (tx.write panics if it does). Under the mvcc
	// backend reads are served from a snapshot vector with no read log and
	// no validation; mvccRO then holds the attempt's reader handle (epoch
	// pin + watermark slot), released by the backend at commit/abort.
	readOnly bool
	mvccRO   *mvccReader
	// mvccRd caches the descriptor's mvcc reader (watermark slot + epoch
	// handle), minted on first use and kept for the descriptor's life, so
	// the read-only hot path needs no second pooling layer; both slots are
	// released when a dropped descriptor's reader is collected. Update
	// commits borrow its epoch handle for the publish pass.
	mvccRd *mvccReader

	attempt int32
	sampled bool // this attempt feeds the duration histograms
	// serialMode marks an escalated (serial/irrevocable) transaction: it
	// holds the instance's exclusive escalation token, wins every
	// arbitration, and the chaos wrapper injects no faults into it. Owner
	// goroutine only; contending transactions observe serial-ness through
	// the stateSerial bit of the state word instead. Padding byte.
	serialMode bool
	// escHeld records which escalation token the transaction holds
	// (escNone/escShared/escSerial); owner-goroutine only. Padding byte.
	escHeld uint8
	rng     uint64

	// ADT-level op notes (NoteOp), populated only when traced.
	ops []OpRecord
}

// newTxn draws a descriptor from the instance pool (allocating only when the
// pool is empty) and assigns the transaction's birth serial. A pooled
// descriptor was fully reset by releaseTxn; only the identity fields need
// stamping here.
func (s *STM) newTxn() *Txn {
	id := s.txnIDs.Add(1)
	tx, _ := s.txnPool.Get().(*Txn)
	if tx == nil {
		// The shard vector rides inline in the pooled descriptor, sized once
		// from the instance's shard count, so the steady state stays at the
		// one-allocation-per-transaction budget.
		tx = &Txn{s: s, rvVec: make([]uint64, s.nShards)}
	}
	tx.birth.Store(id)
	tx.rng = id*0x9e3779b97f4a7c15 | 1
	return tx
}

// releaseTxn resets a quiesced descriptor and returns it to the instance
// pool. The caller guarantees no live reference to tx remains: every ref
// lock released, every visible-reader registration dropped, the escalation
// token returned. (Stale pointers held by concurrent arbiters are defused by
// the incarnation bits of the state word.)
func (s *STM) releaseTxn(tx *Txn) {
	tx.reset()
	s.txnPool.Put(tx)
}

// maxRetainedCap bounds the per-array capacity a pooled descriptor keeps:
// one gigantic transaction must not pin its logs in the pool forever.
const maxRetainedCap = 4096

// truncate empties a pooled log, zeroing the entries it drops. It is the only
// way a log of a pooled descriptor gets shorter, which maintains the pooling
// invariant where the data dies: the spare capacity (s[len:cap]) of every
// pooled log is all-zero at all times — append only ever writes s[:len], and a
// grown array starts zeroed — so recycling a log costs O(entries the attempt
// appended), never O(the largest transaction the descriptor has ever run),
// and a parked descriptor pins no box, ref, value or closure.
func truncate[T any](s *[]T) {
	clear(*s)
	*s = (*s)[:0]
}

// reset readies the descriptor for pool residency, so reuse is
// indistinguishable from a fresh allocation: every log truncated (which, by
// the truncate invariant, leaves its whole backing array zero), oversized
// arrays shed, the scalar state zeroed and the incarnation bumped.
func (tx *Txn) reset() {
	tx.truncateLogs()
	truncate(&tx.sortBuf)
	if max(cap(tx.reads), cap(tx.wset.entries), cap(tx.sortBuf), cap(tx.undo),
		cap(tx.owned), cap(tx.commitLocks), cap(tx.visible), cap(tx.onAbort),
		cap(tx.onCommit), cap(tx.onCommitLocked), cap(tx.onRelease), cap(tx.ops)) > maxRetainedCap {
		// A log grew past the bound: the gigantic transaction's arrays go to
		// the collector together, and the next user regrows from nil exactly
		// like a freshly allocated descriptor.
		tx.reads, tx.wset, tx.ops = nil, writeSet{}, nil
		tx.sortBuf, tx.undo, tx.owned, tx.commitLocks, tx.visible = nil, nil, nil, nil, nil
		tx.onAbort, tx.onCommit, tx.onCommitLocked, tx.onRelease = nil, nil, nil, nil
	}
	tx.id = 0
	clear(tx.rvVec)
	tx.snapshot = 0
	tx.attempt = 0
	tx.sampled = false
	tx.readOnly = false
	tx.mvccRO = nil
	tx.phaseOn = false
	tx.serialMode = false
	tx.escHeld = escNone
	tx.incarnation++
	// Park the state word with no status bits: a doom CAS armed against any
	// incarnation of this descriptor cannot match it.
	tx.state.Store(uint64(tx.incarnation) << stateIncShift)
}

// truncateLogs empties every per-attempt log and the TxnLocal map, and
// forgets the attempt's shard captures and lock-hold stamp.
// (sortBuf is commit scratch: the lazy backends truncate it where they fill
// it, reset when the descriptor retires.)
func (tx *Txn) truncateLogs() {
	truncate(&tx.reads)
	tx.wset.reset()
	truncate(&tx.undo)
	truncate(&tx.owned)
	truncate(&tx.commitLocks)
	truncate(&tx.visible)
	tx.shardSeen = 0 // shard-clock vector is re-captured lazily per attempt
	tx.epochSeen = 0
	tx.lockStart = 0
	if tx.ops != nil { // nil until the first NoteOp; skip the barrier-ed store
		truncate(&tx.ops)
	}
	clear(tx.locals) // the map is retained, its per-attempt contents are not
	truncate(&tx.onAbort)
	truncate(&tx.onCommit)
	truncate(&tx.onCommitLocked)
	truncate(&tx.onRelease)
}

// stateWord composes the descriptor's state word for the current attempt
// with the given status bits.
func (tx *Txn) stateWord(status uint64) uint64 {
	w := uint64(tx.incarnation)<<stateIncShift | uint64(uint32(tx.attempt))<<3 | status
	if tx.serialMode {
		w |= stateSerial
	}
	return w
}

func (tx *Txn) beginAttempt() {
	tx.attempt++
	tx.id = tx.s.txnIDs.Add(1)
	tx.truncateLogs()
	// Histogram sampling draw (1 in histSampleEvery): advance the attempt's
	// xorshift state and test the top bits of the mixed value.
	tx.rng ^= tx.rng >> 12
	tx.rng ^= tx.rng << 25
	tx.rng ^= tx.rng >> 27
	tx.sampled = (tx.rng*0x2545f4914f6cdd1d)>>(64-histSampleShift) == 0
	if tx.sampled && tx.s.phaser != nil {
		tx.phaseBegin()
	} else {
		tx.phaseOn = false
	}
	tx.s.backend.begin(tx)
	tx.state.Store(tx.stateWord(statusActive))
}

// Serial returns a value unique to the current attempt of this
// transaction: its attempt serial, drawn afresh by every attempt and never
// reused.
func (tx *Txn) Serial() uint64 { return tx.id }

// serialToken is the conflict-abstraction write token (SetSerialToken): one
// immutable box whose value is its own pointer, shared by every attempt of
// every transaction. The paper requires the values written into CA
// locations to be unique only so that a value-validating STM sees each
// write (Section 3). Every backend here validates by version, and every
// commit moves the version of each ref it publishes to one no earlier
// commit left there, so a committed token write is visible to validation
// even when the box it replaces is the same token. Its v is a *box, never a
// cell's *T, so Ref.Set never updates it in place.
var serialToken = func() *box {
	b := &box{}
	b.v = b
	return b
}()

// Attempt returns the 1-based attempt number of the transaction: the number
// of times the body has been executed, including re-executions after Retry
// wake-ups. It is NOT the abandonment counter — WithMaxAttempts and
// starvation escalation count only conflict aborts, so a transaction blocked
// on Retry may observe an arbitrarily large Attempt while never being
// abandoned.
func (tx *Txn) Attempt() int { return int(tx.attempt) }

// Serialized reports whether the transaction is running in escalated
// serial (irrevocable) mode. See WithEscalation.
func (tx *Txn) Serialized() bool { return tx.serialMode }

// ReadOnly reports whether the transaction was declared read-only via the
// WithReadOnly context hint.
func (tx *Txn) ReadOnly() bool { return tx.readOnly }

// STM returns the instance this transaction runs against.
func (tx *Txn) STM() *STM { return tx.s }

func (tx *Txn) status() uint64 { return tx.state.Load() & statusMask }

// stateSnapshot returns the full state word, used by contention managers to
// doom exactly the attempt they observed.
func (tx *Txn) stateSnapshot() uint64 { return tx.state.Load() }

// doom marks the observed attempt of victim as aborted. It returns true if
// the victim was active in the observed state and is now doomed.
func doomTxn(victim *Txn, snap uint64) bool {
	if snap&statusMask != statusActive {
		return false
	}
	return victim.state.CompareAndSwap(snap, snap&^statusMask|statusAborted)
}

// checkAlive aborts the transaction (by unwinding to Atomically) if a
// contention manager doomed it.
func (tx *Txn) checkAlive() {
	if tx.status() == statusAborted {
		panic(conflictSignal{cause: CauseDoomed})
	}
}

// conflict unwinds the transaction with the given cause; Atomically will
// roll back and retry.
func (tx *Txn) conflict(cause AbortCause) {
	panic(conflictSignal{cause: cause})
}

// Retry aborts the transaction and blocks until some other transaction
// commits, then re-executes the body. It is the composable blocking
// primitive of Harris et al.'s "Composable memory transactions".
func Retry(tx *Txn) {
	_ = tx
	panic(retrySignal{})
}

// AbortAndRetry aborts the transaction as if a conflict had been detected:
// the transaction rolls back (running OnAbort handlers), backs off and
// re-executes. Proust's pessimistic lock-allocator policy calls this when an
// abstract-lock acquisition times out, converting potential deadlock into
// abort plus backoff.
func AbortAndRetry(tx *Txn) {
	_ = tx
	panic(conflictSignal{cause: CauseLockConflict})
}

// OnAbort registers f to run if the transaction aborts (for any reason,
// including retries of the current attempt). Handlers run in LIFO order,
// which is the order required for Proust's eager inverses, and before the
// backend restores and releases anything the attempt holds, so an inverse
// runs while the attempt still owns its conflict-abstraction locations.
func (tx *Txn) OnAbort(f func()) { tx.onAbort = append(tx.onAbort, f) }

// OnCommit registers f to run after the transaction commits and its write
// locks are released.
func (tx *Txn) OnCommit(f func()) { tx.onCommit = append(tx.onCommit, f) }

// OnRelease registers f to run when the attempt is over, whichever way it
// ended: after the OnCommit handlers of a commit, or after the OnAbort
// inverses of an abort and the backend's rollback. Pessimistic abstract
// locks are released here, so no inverse and no restore of an aborting
// attempt is ever visible to a transaction that acquires them next.
func (tx *Txn) OnRelease(f func()) { tx.onRelease = append(tx.onRelease, f) }

// OnCommitLocked registers f to run inside the commit critical section:
// after the write set is locked and the read set validated, but before
// versions are published and locks released. Proust replay logs are applied
// here so that their effects become visible atomically with the commit.
func (tx *Txn) OnCommitLocked(f func()) { tx.onCommitLocked = append(tx.onCommitLocked, f) }

// runBody executes fn, converting internal signals into (err, sig).
func (tx *Txn) runBody(fn func(*Txn) error) (err error, sig txnSignal) {
	defer func() {
		r := recover()
		switch v := r.(type) {
		case nil:
		case conflictSignal:
			tx.rollback(v.cause)
			sig = sigConflict
		case retrySignal:
			tx.rollback(CauseLockConflict)
			sig = sigRetry
		default:
			// A panic from user code: roll back and re-panic so the
			// caller sees it with locks and hooks cleaned up.
			tx.rollback(CauseUser)
			panic(r)
		}
	}()
	err = fn(tx)
	return err, sigNone
}

// logRead appends a read-set entry.
func (tx *Txn) logRead(r *baseRef, ver uint64) {
	tx.reads = append(tx.reads, readEntry{r: r, ver: ver})
}

// read returns the value of r as observed by tx, maintaining opacity. Reads
// of refs in the redo log are served from it here; everything else is the
// backend's consistent read.
func (tx *Txn) read(r *baseRef) any {
	tx.checkAlive()
	if b := tx.wset.get(r); b != nil {
		return b.v
	}
	return tx.s.backend.read(tx, r)
}

// touch registers r in the read set (so it is validated at commit) even if
// r is already in the write set. Proust's lazy/optimistic wrapper uses this
// as the trailing read of Theorem 5.3: write(α); op(); read(α) — the read
// must conflict with any concurrently committed write to α, which a plain
// read-after-write would not, since it is served from the redo log.
func (tx *Txn) touch(r *baseRef) {
	tx.checkAlive()
	tx.s.backend.touch(tx, r)
}

// writtenBox returns the box this attempt has already written to r, or nil.
// It applies write's checks first, so a repeat write that updates the box in
// place (Ref.Set) still aborts a doomed attempt and still panics in a
// read-only one.
func (tx *Txn) writtenBox(r *baseRef) *box {
	tx.checkWrite()
	return tx.wset.get(r)
}

// write records or applies a write of box b to r, per the backend's
// strategy: the lazy backends publish b itself at commit, the encounter-time
// ones install it as the tentative box.
func (tx *Txn) write(r *baseRef, b *box) {
	tx.checkWrite()
	tx.s.backend.write(tx, r, b)
}

// checkWrite aborts a doomed attempt and rejects a write in a read-only one.
func (tx *Txn) checkWrite() {
	tx.checkAlive()
	if tx.readOnly {
		panic("stm: write inside a transaction declared with WithReadOnly")
	}
}

// recordWrite enters r into the redo log (insert-or-update, no allocation).
func (tx *Txn) recordWrite(r *baseRef, b *box) {
	tx.wset.put(r, b)
}

// markLocked stamps the start of the write-lock hold window (first lock
// only, sampled attempts only — see histSampleEvery).
func (tx *Txn) markLocked() {
	if tx.sampled && tx.lockStart == 0 {
		tx.lockStart = tx.s.sinceEpoch()
	}
}

// observeLockHold closes the write-lock hold window and records it in the
// LockHold histogram.
func (tx *Txn) observeLockHold() {
	if tx.lockStart != 0 {
		tx.s.stats.LockHold.observe(time.Duration(tx.s.sinceEpoch() - tx.lockStart))
		tx.lockStart = 0
	}
}

// backoff performs randomized exponential backoff between attempts. The
// window grows with the number of conflict aborts (not body executions, so
// Retry wake-ups do not inflate it). When ctx is non-nil the sleep branch
// additionally wakes on ctx.Done(), bounding cancellation latency.
func (tx *Txn) backoff(ctx context.Context, failures int) {
	// xorshift64*
	tx.rng ^= tx.rng >> 12
	tx.rng ^= tx.rng << 25
	tx.rng ^= tx.rng >> 27
	rnd := tx.rng * 0x2545f4914f6cdd1d

	shift := failures
	if shift > 10 {
		shift = 10
	}
	window := uint64(1) << shift
	if failures < 4 {
		spins := rnd % (window * 64)
		for i := uint64(0); i < spins; i++ {
			procYield()
		}
		return
	}
	d := time.Duration(rnd%(window*1000)) * time.Nanosecond
	if d > time.Millisecond {
		d = time.Millisecond
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
	}
}
