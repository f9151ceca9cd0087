package stm

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// The sharded timebase. The single global version clock of classic TL2 is
// the one commit point every writing transaction funnels through; this file
// partitions it. Every baseRef is assigned a shard from its creation id (in
// blocks, so references allocated together share a shard), each shard
// carries its own cache-line-padded commit clock, and transactions
// read-version against a compact per-shard clock vector captured lazily, per
// shard, at first touch. Every committer bumps a shard's clock itself, after
// taking its write locks and before publishing, so a clock sample v
// guarantees that whoever publishes at a version ≤ v already held its locks
// when v was read. Cross-shard writers announce themselves through a global
// epoch counter that readers use as a fence. See DESIGN.md §11 for the
// protocol and its opacity argument.

const (
	// MaxShards bounds the shard count so per-transaction shard state fits
	// in a single uint64 bitmask (Txn.shardSeen).
	MaxShards = 64
	// shardBlockBits is the id-block size of the ref→shard mapping: 2^6 = 64
	// consecutive reference ids map to the same shard.
	shardBlockBits = 6
)

// stmShard is one partition of the timebase: a commit clock on its own cache
// line.
type stmShard struct {
	clock atomic.Uint64 // per-shard commit clock
	_     [56]byte
}

// AutoShardCount returns the shard count every instance uses: a power of two
// covering max(8, GOMAXPROCS), capped at MaxShards. Exported so layers that
// partition parallel structures alongside the timebase (the pessimistic LAP's
// stripe table) can align with it without holding an STM instance.
func AutoShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n >= MaxShards {
		return MaxShards
	}
	return 1 << bits.Len(uint(n-1))
}

// shardOf maps a reference id to its shard.
func (s *STM) shardOf(id uint64) uint32 {
	return uint32((id >> shardBlockBits) & s.shardMask)
}

// Epoch returns the cross-shard commit epoch: the number of multi-shard
// write commits (plus serial-mode cross-shard commits). Transactions whose
// reads span shards use it as a fence; see Txn.captureShard and Txn.extend.
func (s *STM) Epoch() uint64 { return s.epochClk.Load() }

// ShardClocks appends the current per-shard commit clock values to dst and
// returns the result. Exported for observability adapters and tests.
func (s *STM) ShardClocks(dst []uint64) []uint64 {
	for i := range s.shards {
		dst = append(dst, s.shards[i].clock.Load())
	}
	return dst
}

// ShardClockSkew returns the spread (max − min) of the per-shard commit
// clocks: 0 means perfectly balanced commit traffic, a large value means a
// few hot shards absorb most commits.
func (s *STM) ShardClockSkew() uint64 {
	if len(s.shards) == 0 {
		return 0
	}
	lo := s.shards[0].clock.Load()
	hi := lo
	for i := 1; i < len(s.shards); i++ {
		v := s.shards[i].clock.Load()
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// rvFor returns the transaction's read version for r's shard, capturing the
// shard's clock on first touch.
func (tx *Txn) rvFor(r *baseRef) uint64 {
	sh := r.shard
	if tx.shardSeen>>sh&1 == 0 {
		tx.captureShard(sh)
	}
	return tx.rvVec[sh]
}

// captureShard samples shard sh's commit clock as the transaction's read
// version for that shard. The vector is captured lazily — each shard at its
// first touch, not all at begin — so commits that land in a shard between
// begin and first touch never cost an extension. The first capture pins the
// global epoch; every later capture re-checks it, and if a cross-shard commit
// moved it the whole read set is revalidated first (via extend). Without
// that fence a vector assembled across captures could straddle a cross-shard
// commit: "after" it in a shard captured late, "before" it in one captured
// early.
//
// Ordering matters: the epoch is loaded AFTER the shard clock. Cross-shard
// committers bump the epoch before any shard clock, so a clock sample that
// includes such a commit's bump cannot be paired with a pre-commit epoch —
// the later epoch load is guaranteed to see the bump and trip the fence.
// (The reverse order is unsound: an epoch loaded early can be stale-but-
// equal to epochSeen while the clock sample already includes the committer's
// bump, silently admitting a straddling vector.)
func (tx *Txn) captureShard(sh uint32) {
	s := tx.s
	for {
		v := s.shards[sh].clock.Load()
		ep := s.epochClk.Load()
		if tx.shardSeen == 0 {
			tx.epochSeen = ep
		} else if ep != tx.epochSeen {
			s.stats.EpochExtensions.Add(1)
			if !tx.extend() {
				tx.conflict(CauseValidation)
			}
			// extend refreshed epochSeen at a newer cut; resample the shard
			// so the pair (clock, epoch) is re-taken in order against it.
			continue
		}
		tx.rvVec[sh] = v
		tx.shardSeen |= 1 << sh
		return
	}
}

// extend revalidates the read set at a fresh shard-clock vector and, on
// success, installs the new vector (the TinySTM timestamp extension, per
// shard). The clocks are reloaded before validating — the same ordering the
// single-clock extension needed — and the whole read set is checked whenever
// any captured clock or the epoch moved.
//
// The epoch is loaded AFTER the clocks, mirroring captureShard: a
// cross-shard committer bumps the epoch before its shard clocks, so if any
// reloaded clock includes its bump the epoch load below sees the bump too.
func (tx *Txn) extend() bool {
	pp := tx.phaseEnter(PhaseValidate)
	ok := tx.extendVector()
	tx.phaseExit(pp)
	return ok
}

// extendVector is the extension pass proper (see extend above for the
// protocol argument; the wrapper only attributes the pass to PhaseValidate).
func (tx *Txn) extendVector() bool {
	s := tx.s
	moved := false
	for m := tx.shardSeen; m != 0; m &= m - 1 {
		sh := uint(bits.TrailingZeros64(m))
		if now := s.shards[sh].clock.Load(); now != tx.rvVec[sh] {
			tx.rvVec[sh] = now
			moved = true
		}
	}
	ep := s.epochClk.Load()
	if (moved || ep != tx.epochSeen) && !tx.validateReads() {
		return false
	}
	tx.epochSeen = ep
	return true
}

// pubStamp records one commit attempt's write-version assignment: the shards
// written and the version(s) to publish. It lives on the committer's stack.
type pubStamp struct {
	mask      uint64            // shards written
	single    bool              // write set confined to one shard (or empty)
	soloFresh bool              // single-shard and wv == rv+1 for that shard
	skip      bool              // read validation provably unnecessary (solo TL2 skip)
	wv        uint64            // single-shard write version
	wvs       [MaxShards]uint64 // cross-shard: per-shard write versions
}

// ver returns the version to publish for r under this stamp.
func (p *pubStamp) ver(r *baseRef) uint64 {
	if p.single {
		return p.wv
	}
	return p.wvs[r.shard]
}

// stampWrites assigns the attempt's write version(s) for the shards in mask.
// The caller must already hold the write locks of every ref it will publish
// (the read-version guarantee and the validation skip both depend on it).
//
// A single-shard write set bumps its shard's clock. Cross-shard write sets
// bump the global epoch first — the fence that makes partially-bumped clock
// vectors visible to readers — and then advance each written shard's clock in
// ascending shard order.
func (tx *Txn) stampWrites(p *pubStamp, mask uint64) {
	pp := tx.phaseEnter(PhaseStamp)
	tx.stampWritesClocks(p, mask)
	tx.phaseExit(pp)
}

// stampWritesClocks is the stamping pass proper (the stampWrites wrapper only
// attributes the clock window to PhaseStamp).
func (tx *Txn) stampWritesClocks(p *pubStamp, mask uint64) {
	s := tx.s
	p.mask = mask
	if mask == 0 {
		// No writes to version (commit-locked hooks only): nothing to stamp.
		p.single = true
		return
	}
	if mask&(mask-1) == 0 {
		sh := uint(bits.TrailingZeros64(mask))
		p.single = true
		p.wv = s.shards[sh].clock.Add(1)
		// wv == rv+1 proves no other commit landed in sh since we captured
		// it (every committer takes its own bump): our own bump does not
		// count as movement, and if the read set is confined to sh validation
		// is skipped entirely — the classic TL2 wv==rv+1 optimization, per
		// shard. Only meaningful when we have captured sh, i.e. have reads
		// there.
		if tx.shardSeen>>sh&1 == 1 && p.wv == tx.rvVec[sh]+1 {
			p.soloFresh = true
			p.skip = tx.shardSeen&^mask == 0
		}
		return
	}
	// Cross-shard: announce through the epoch before bumping any shard
	// clock, so a reader whose vector capture races with the partial bumps
	// is forced through the fence and cannot assemble a cut that straddles
	// this commit.
	s.epochClk.Add(1)
	s.stats.CrossShardCommits.Add(1)
	for m := mask; m != 0; m &= m - 1 {
		sh := uint(bits.TrailingZeros64(m))
		p.wvs[sh] = s.shards[sh].clock.Add(1)
	}
}

// validateCommit runs commit-time read-set validation under the stamp.
// Cross-shard commits always validate: they bumped the epoch themselves, so
// their vector is by definition behind the fence. Single-shard commits skip
// the pass when no captured shard clock moved (apart from a solo fresh bump
// of their own) and the epoch did not move either — no publication has
// landed anywhere they read since capture — and otherwise check every entry.
//
// The epoch is loaded after the clock sweep, like captureShard/extend: a
// clock sample that includes a cross-shard commit's bump then cannot pair
// with a stale-but-equal epoch.
func (tx *Txn) validateCommit(p *pubStamp) bool {
	pp := tx.phaseEnter(PhaseValidate)
	ok := tx.validateCommitStamped(p)
	tx.phaseExit(pp)
	return ok
}

// validateCommitStamped is the commit-time validation pass proper (the
// validateCommit wrapper only attributes it to PhaseValidate).
func (tx *Txn) validateCommitStamped(p *pubStamp) bool {
	if p.skip || len(tx.reads) == 0 {
		return true
	}
	if p.single && !tx.vectorMoved(p) {
		return true
	}
	return tx.validateReadsTimed()
}

// vectorMoved reports whether any captured shard clock (other than the one a
// solo fresh stamp bumped itself) or the epoch moved since capture.
func (tx *Txn) vectorMoved(p *pubStamp) bool {
	s := tx.s
	seen := tx.shardSeen
	if p.soloFresh {
		seen &^= p.mask
	}
	for m := seen; m != 0; m &= m - 1 {
		sh := uint(bits.TrailingZeros64(m))
		if s.shards[sh].clock.Load() != tx.rvVec[sh] {
			return true
		}
	}
	return s.epochClk.Load() != tx.epochSeen
}
