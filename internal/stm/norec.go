package stm

import (
	"math/bits"
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
// the read-version vector of the TL2-lineage backends.
//
// The sequence lock itself stays global — that is NOrec's defining O(1)
// metadata footprint — but validation is partitioned along the instance's
// timebase shards: writers bump a per-shard write counter (under the held
// sequence lock) for every shard their redo log touches, and transactions
// snapshot the counters (into Txn.rvVec) whenever they are stable. A
// revalidation pass then only compares boxes of entries whose shard counter
// moved; a quiet counter proves no publication into that shard since the
// snapshot, so its entries cannot have changed. Under skewed workloads this
// turns NOrec's O(|reads|)-per-seq-bump revalidation into a walk of the hot
// shard's entries only.
//
// Proust integration is unchanged: OnCommitLocked runs while the global
// sequence lock is held — NOrec's "native locking mechanism" — so replay
// logs apply atomically with the commit, and Ref.Touch records a read-log
// entry that commit-time validation checks, exactly as Theorem 5.3 needs.
type norecBackend struct {
	seq atomic.Uint64 // global sequence lock (even = stable)
	_   [56]byte
	// wcount counts committed publications per timebase shard; bumped only
	// while seq is held odd, read only under a stable (even) seq.
	wcount [MaxShards]atomic.Uint64
}

var _ Backend = (*norecBackend)(nil)

// Name implements Backend.
func (*norecBackend) Name() string { return "norec" }

// Policy implements Backend.
func (*norecBackend) Policy() DetectionPolicy { return NOrec }

// begin samples a stable (even) sequence number into the transaction's
// snapshot, together with the per-shard write counters it will validate
// against (re-read until the sequence is stable across the copy).
func (b *norecBackend) begin(tx *Txn) {
	n := tx.s.nShards
	for {
		s := b.seq.Load()
		if s&1 != 0 {
			procYield()
			continue
		}
		for i := 0; i < n; i++ {
			tx.rvVec[i] = b.wcount[i].Load()
		}
		if b.seq.Load() != s {
			continue
		}
		tx.snapshot = s
		return
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

// validate waits for a stable sequence and value-checks the read log,
// advancing the snapshot (and the counter vector) on success. The pass is
// partitioned: only entries whose shard write counter moved since the
// transaction's snapshot are compared — counters and boxes are read under
// the same stable sequence window, so an unmoved counter proves the shard
// received no publication and its entries' boxes cannot have changed.
func (b *norecBackend) validate(tx *Txn) bool {
	pp := tx.phaseEnter(PhaseValidate)
	ok := b.validateChains(tx)
	tx.phaseExit(pp)
	return ok
}

// validateChains is the validation pass proper (the validate wrapper only
// attributes it to PhaseValidate; the bracket nests inside PhaseRead or
// PhaseStamp and the token model restores the outer phase).
func (b *norecBackend) validateChains(tx *Txn) bool {
	n := tx.s.nShards
	var cnt [MaxShards]uint64
	for {
		s := b.seq.Load()
		if s&1 == 1 {
			procYield()
			continue
		}
		var changed uint64
		for i := 0; i < n; i++ {
			cnt[i] = b.wcount[i].Load()
			if cnt[i] != tx.rvVec[i] {
				changed |= 1 << uint(i)
			}
		}
		if changed != 0 {
			if n == 1 {
				for i := range tx.reads {
					re := &tx.reads[i]
					if re.r.value.Load() != re.box {
						return false
					}
				}
			} else {
				// Sharded: walk only the changed shards' read-log chains.
				tx.chainReads()
				for m := changed & tx.readShards; m != 0; m &= m - 1 {
					sh := uint(bits.TrailingZeros64(m))
					for i := tx.readHeads[sh]; i >= 0; i = tx.reads[i].next {
						re := &tx.reads[i]
						if re.r.value.Load() != re.box {
							return false
						}
					}
				}
			}
		}
		if b.seq.Load() != s {
			continue
		}
		copy(tx.rvVec[:n], cnt[:n])
		tx.snapshot = s
		return true
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
	// Record the publication in each written shard's counter while the
	// sequence lock is still held, so validators (who read the counters
	// under a stable sequence) partition correctly.
	for m := tx.wset.shardMask(); m != 0; m &= m - 1 {
		b.wcount[bits.TrailingZeros64(m)].Add(1)
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
