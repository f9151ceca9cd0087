package stm

import (
	"slices"
	"sync/atomic"

	"proust/internal/conc"
)

// The mvcc backend: the MultiVersion point of the design space. Every baseRef
// keeps a bounded, newest-first chain of displaced versions (baseRef.hist)
// stamped by the sharded timebase, so a transaction declared read-only
// (WithReadOnly / core.DoReadOnly) can capture a shard-clock snapshot vector
// once at begin and serve every read from the newest version at or below the
// snapshot: no read log, no validation, no conflict aborts — wait-free once
// the vector is captured, except for momentary spins on refs mid-publication.
// Update transactions are TL2-shaped (redo log, commit-time locking in global
// ref order, invisible readers, commit-time validation against the shard
// vector) and append the displaced version to each written ref's history at
// publication.
//
// Version nodes are pooled through the conc epoch-reclamation facility
// (conc.EpochPool, the exported generalization of the Ctrie node pool), so
// steady-state version churn allocates nothing: snapshot readers pin an epoch
// handle for the duration of the transaction, writers retire trimmed nodes
// after unlinking them, and a node returns to a freelist only after a full
// grace period.
//
// An update commit that finds no snapshot reader registered once its
// publication window is open keeps no history at all: it retires each written
// ref's whole chain instead of appending (see commit and readSnapshot). While
// readers are registered, histories are garbage-collected by a per-shard
// oldest-active watermark W:
// every active snapshot transaction occupies a padded slot holding its
// snapshot floor, W for a shard is the minimum of that floor and the shard's
// own commit clock, and the writer-side trim keeps each chain down to the
// first node with ver ≤ W (everything strictly older is provably invisible to
// every active and future reader — see trimHistory). The version budget
// (DefaultVersionCap) is soft: when a chain exceeds
// it but W forbids cutting at the cap, the writer rescans the watermark
// eagerly, counts the overflow (MVCCCapOverflows) and retains the tail — a
// version some in-flight snapshot still needs is never reclaimed, which is
// what makes "read-only transactions never abort" a theorem rather than a
// fast path (there is no snapshot-too-old).

// DefaultVersionCap is the per-reference version-history budget of the mvcc
// backend: the number of displaced versions a reference retains for snapshot
// readers before the writer-side trim reclaims aggressively. The budget is
// soft against active readers (see trimHistory and MVCCCapOverflows).
const DefaultVersionCap = 8

// mvccVerNode is one displaced version on a reference's history chain.
// All fields are written before the node is published (under the ref's owner
// lock) and never mutated afterwards until the node has been retired AND its
// grace period has elapsed; lock-free snapshot readers may therefore traverse
// nodes concurrently with trimming.
type mvccVerNode struct {
	ver  uint64
	val  *box
	next atomic.Pointer[mvccVerNode]
}

// mvccResetNode clears a node's pointer fields when it enters a freelist (its
// grace period has elapsed, so no reader can still observe it): freelist
// residency must not pin displaced boxes or downstream chain nodes.
func mvccResetNode(n *mvccVerNode) {
	n.ver = 0
	n.val = nil
	n.next.Store(nil)
}

// mvccSlot is one reader's watermark slot: snap holds floor+1 (0 = free,
// 1 = the pre-capture sentinel, i.e. floor 0 — full retention). Padded so
// concurrent readers publishing their floors do not false-share.
type mvccSlot struct {
	snap atomic.Uint64
	_    [56]byte
}

// mvccReader is the per-attempt state of a snapshot (read-only) transaction:
// its watermark slot, its pinned epoch handle, and read counters accumulated
// locally and flushed to Stats once at release (per-read atomic bumps would
// put contention back on the path the backend exists to clear). A reader is
// minted once per transaction descriptor and cached there (Txn.mvccRd), so
// the read-only begin path has no per-attempt pool traffic. The descriptor
// pool drops descriptors at every collection; a collected reader's watermark
// slot and epoch slot go back to their registries (getReader), so both stay
// bounded by the peak number of live descriptors.
type mvccReader struct {
	slot  *mvccSlot
	eh    *conc.EpochHandle[mvccVerNode]
	reads uint64 // snapshot reads this attempt
	hist  uint64 // of those, served from the version chain
}

// mvccBackend implements the MultiVersion policy. One instance per STM.
type mvccBackend struct {
	pool *conc.EpochPool[mvccVerNode]

	// slots registers every reader's watermark slot; a collected reader's
	// slot is handed out again (getReader).
	slots conc.SlotRegistry[mvccSlot]

	// wmVec caches the last watermark scan, per shard: wmVec[sh] bounds what
	// any active or future snapshot reader can need from a ref in shard sh.
	// pubs counts publishes since, driving the periodic rescan (every
	// mvccWMRescanEvery version appends). Each cached entry is individually
	// sound — a scan's entry is ≤ every then-active reader's floor and ≤ that
	// shard's then-current clock, and any reader arriving later captures a
	// per-shard snapshot ≥ that clock (clocks are monotonic) — so concurrent
	// scans interleaving their stores cannot produce an unsound entry.
	wmVec [MaxShards]atomic.Uint64
	pubs  atomic.Uint64

	// versionsLive gauges the history nodes currently reachable (appended
	// minus reclaimed), exported through MVCCTelemetry.
	versionsLive atomic.Int64

	// pubClk/pubDone bracket every update commit's publication window:
	// pubClk is bumped before the commit stamps (so before any shard-clock
	// bump of that commit), pubDone once values and versions are published
	// (or the commit has failed) and before any lock is released. The pair is
	// the snapshot capture's fence — see captureSnapshotVector. Padded apart:
	// both words are bumped by every update committer and polled by every
	// snapshot begin; this global write point is the mvcc design point's
	// deliberate cost on the update path, paid to make the read-only path
	// lock- and validation-free.
	_       [56]byte
	pubClk  atomic.Uint64
	_       [56]byte
	pubDone atomic.Uint64
	_       [56]byte
}

// mvccWMRescanEvery is the version-append cadence of the lazy watermark
// rescan (overflowing the version cap additionally rescans eagerly).
const mvccWMRescanEvery = 64

func newMVCCBackend() Backend {
	return &mvccBackend{
		pool: conc.NewEpochPool(256, mvccResetNode),
	}
}

var _ Backend = (*mvccBackend)(nil)

func (*mvccBackend) Name() string            { return "mvcc" }
func (*mvccBackend) Policy() DetectionPolicy { return MultiVersion }

// begin: update transactions capture their shard vector lazily like tl2;
// snapshot transactions capture it eagerly, under the watermark-slot
// sentinel protocol:
//
//  1. publish the sentinel (slot ← 1, i.e. floor 0: retain everything),
//  2. pin the epoch handle (chain nodes observed from here on are protected),
//  3. capture the full shard-clock vector (captureSnapshotVector),
//  4. publish the real floor (slot ← min(vector)+1).
//
// The sentinel-before-capture order is what makes the watermark sound: a
// writer-side scan either observes this slot (and retains accordingly) or
// ran entirely before the sentinel store — in which case, clocks being read
// before slots in the scan and all atomics being sequentially consistent,
// the scan's clock floor precedes this transaction's capture, so the scan's
// watermark is ≤ every snapshot value captured here. See trimHistory.
func (b *mvccBackend) begin(tx *Txn) {
	if !tx.readOnly {
		return
	}
	mr := b.getReader(tx)
	tx.mvccRO = mr
	mr.reads = 0
	mr.hist = 0
	mr.slot.snap.Store(1)
	mr.eh.Pin()
	minSnap := b.captureSnapshotVector(tx)
	mr.slot.snap.Store(minSnap + 1)
}

// captureSnapshotVector eagerly fills the transaction's shard-clock vector
// with a consistent cut of the sharded timebase and returns its minimum.
//
// A lazily captured vector is kept consistent by the epoch fence plus read
// validation (captureShard/extend); a snapshot reader validates nothing, so
// its vector must be a consistent cut by construction. Cross-shard commits
// are not the only hazard: a causal chain through two single-shard commits
// (T1 writes shard A; T2 reads that value and writes shard B) can straddle a
// non-atomic sweep — clock A read before T1, clock B read after T2 — handing
// the reader T2's effect without its cause, and no per-shard invariant or
// epoch fence catches it. The loop therefore fences ALL update commits
// through the backend's publication-window pair:
//
//   - wait for pubDone == pubClk (done loaded first): every publication
//     window that ever opened has closed, so at the instant of the second
//     load no update commit sits anywhere between stamping and release —
//     every version at or below any shard clock is fully published;
//   - sweep all shard clocks: with no bump in flight, the clocks ARE the
//     committed frontier;
//   - re-check pubClk: unchanged means no commit even began stamping during
//     the sweep, so no clock moved mid-sweep and the vector is the committed
//     state of every shard at one real-time instant — a prefix of the commit
//     order, closed under the reads-from relation, hence a consistent cut.
//
// Serial-mode commits open the window too (the bumps live in the backend's
// commit path, which escalated transactions share); they additionally cannot
// overlap this capture at all — the escalation token is held shared for a
// whole optimistic attempt and exclusively by a serial one. The loop re-runs
// only while update commits are actively mid-publication, so it terminates
// under any finite commit rate; it costs ~nShards+3 plain atomic loads and no
// mutex.
func (b *mvccBackend) captureSnapshotVector(tx *Txn) uint64 {
	s := tx.s
	for {
		d := b.pubDone.Load()
		e := b.pubClk.Load()
		if d != e {
			procYield()
			continue
		}
		for sh := 0; sh < s.nShards; sh++ {
			tx.rvVec[sh] = s.shards[sh].clock.Load()
		}
		if b.pubClk.Load() != e {
			continue
		}
		if s.nShards >= MaxShards {
			tx.shardSeen = ^uint64(0)
		} else {
			tx.shardSeen = 1<<uint(s.nShards) - 1
		}
		minSnap := tx.rvVec[0]
		for _, v := range tx.rvVec[1:] {
			if v < minSnap {
				minSnap = v
			}
		}
		return minSnap
	}
}

func (b *mvccBackend) read(tx *Txn, r *baseRef) any {
	if tx.readOnly {
		return b.readSnapshot(tx, r)
	}
	return tx.readVersioned(r)
}

func (b *mvccBackend) touch(tx *Txn, r *baseRef) {
	if tx.readOnly {
		// Nothing to validate later; the touch degenerates to a snapshot read.
		_ = b.readSnapshot(tx, r)
		return
	}
	_ = tx.readVersioned(r)
}

func (b *mvccBackend) write(tx *Txn, r *baseRef, bx *box) {
	tx.recordWrite(r, bx)
}

func (b *mvccBackend) validate(tx *Txn) bool {
	if tx.readOnly {
		return true // snapshot reads are consistent by construction
	}
	return tx.validateReads()
}

// readSnapshot serves one read of a snapshot transaction: the newest version
// of r at or below the transaction's read version for r's shard. It records
// nothing and never aborts.
//
// The triple load (version, value, hist) is made atomic by the owner/version
// recheck: writers publish all three only while holding r's owner lock, so an
// unlocked-before and unlocked-after observation with an unchanged version
// brackets no publication. A locked ref is waited out rather than read
// around: the in-flight commit may be publishing at a version ≤ our snapshot
// (its clock bump can predate our capture — the per-shard reader invariant
// only guarantees it held its locks by then), and the newest-version-≤-snap
// contract requires that value, which neither the current value nor the
// chain carries until publication completes. Publication windows are short
// (the committer already validated); a stalled active owner is doomed
// through the contention manager after a spin budget, and a committed owner
// finishes releasing regardless.
//
// The chain walk below the current version is safe under the epoch pin:
// nodes are immutable once published, trimming unlinks before retiring, and
// a retired node's fields survive until the grace period expires — which
// cannot happen while this transaction stays pinned.
func (b *mvccBackend) readSnapshot(tx *Txn, r *baseRef) any {
	mr := tx.mvccRO
	mr.reads++
	snap := tx.rvVec[r.shard]
	for spins := 0; ; spins++ {
		if owner := r.owner.Load(); owner != nil {
			if spins&1023 == 1023 {
				osnap := owner.stateSnapshot()
				if osnap&statusMask == statusActive && tx.s.cmWins(tx, owner, osnap) {
					doomTxn(owner, osnap)
				}
			}
			procYield()
			continue
		}
		v1 := r.version.Load()
		bx := r.value.Load()
		h := r.hist.Load()
		if r.owner.Load() != nil || r.version.Load() != v1 {
			continue
		}
		if v1 <= snap {
			return bx.v
		}
		for n := h; n != nil; n = n.next.Load() {
			if n.ver <= snap {
				mr.hist++
				return n.val.v
			}
		}
		// Unreachable while the retention invariants hold; a fresh
		// publication may have raced the loads — retry rather than guess.
		//
		//   - A commit that saw this reader's slot held appended the version
		//     it displaced and trimmed only below the watermark (W ≤ snap,
		//     and the chain always reaches a node with ver ≤ W).
		//   - A commit that published with no history (no slot held once its
		//     window was open) cannot have displaced a version this reader
		//     needs. Its registry scan follows its pubClk.Add; this reader
		//     stored its sentinel, then loaded pubDone and pubClk in
		//     captureSnapshotVector — all sequentially consistent. A scan
		//     that missed the sentinel (or loaded the registry before this
		//     reader's slot was appended) therefore precedes the sentinel
		//     store, so the capture's pubDone load came after that commit's
		//     pubClk.Add and returned only once its window had closed: the
		//     vector is at or above every version it published. Update
		//     transactions never read history.
		procYield()
	}
}

// commit implements the update-transaction commit (TL2-shaped: lock the
// write set in global ref order, stamp, validate, publish) with per-ref
// version appends, and the snapshot-transaction commit (release the reader;
// nothing to validate or publish).
func (b *mvccBackend) commit(tx *Txn) bool {
	if tx.readOnly {
		if !tx.transitionCommitted() {
			tx.rollback(CauseDoomed)
			return false
		}
		tx.s.stats.MVCCSnapshotTxns.Add(1)
		b.releaseReader(tx)
		tx.finishCommit()
		return true
	}
	if tx.wset.len() == 0 && len(tx.onCommitLocked) == 0 {
		if !tx.transitionCommitted() {
			tx.rollback(CauseDoomed)
			return false
		}
		tx.finishCommit()
		return true
	}

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

	// Open the publication window BEFORE stamping (so before this commit's
	// clock bump) and close it on every outcome, after publication when there
	// is one — the snapshot capture's fence (see captureSnapshotVector).
	b.pubClk.Add(1)
	var p pubStamp
	tx.stampWrites(&p, tx.wset.shardMask())
	if !tx.validateCommit(&p) {
		b.pubDone.Add(1)
		tx.rollback(CauseValidation)
		return false
	}
	if !tx.transitionCommitted() {
		b.pubDone.Add(1)
		tx.rollback(CauseDoomed)
		return false
	}

	pp = tx.phaseEnter(PhasePublish)
	tx.runCommitLocked()
	// Publish with history append: per ref, the displaced (previously
	// committed) version/value pair becomes the new chain head and the chain
	// is trimmed against the watermark before the new value and version are
	// stored, all under the ref's owner lock. Values and versions publish
	// before the locks are released, exactly like tl2.
	//
	// With no snapshot reader registered once this window is open, no reader
	// can ever need the displaced version (or anything older), so the commit
	// publishes with no history instead: it unlinks and retires each written
	// ref's whole chain. The registry scan must follow pubClk.Add above — see
	// readSnapshot for the ordering argument.
	h := b.getReader(tx).eh
	h.Pin()
	// One rescan-cadence draw per commit, not per written ref: the boundary
	// was crossed iff the new total modulo the cadence is below the step.
	if k := uint64(len(tx.wset.entries)); b.pubs.Add(k)%mvccWMRescanEvery < k {
		b.scanWatermark(tx.s)
	}
	idle := b.noSnapshotReaders()
	appended := uint64(0)
	reclaimed := uint64(0)
	for i := range tx.wset.entries {
		e := &tx.wset.entries[i]
		r := e.r
		if idle {
			if n := r.hist.Load(); n != nil {
				r.hist.Store(nil)
				reclaimed += retireChain(h, n)
			}
		} else {
			n := h.Alloc()
			n.ver = r.version.Load()
			n.val = r.value.Load()
			n.next.Store(r.hist.Load())
			r.hist.Store(n)
			appended++
			reclaimed += b.trimHistory(tx, h, r)
		}
		r.value.Store(e.val)
		r.version.Store(p.ver(r))
	}
	h.Unpin()
	b.versionsLive.Add(int64(appended) - int64(reclaimed))
	tx.s.stats.MVCCVersionsAppended.Add(appended)
	tx.s.stats.MVCCVersionsReclaimed.Add(reclaimed)
	b.pubDone.Add(1)
	for i := range tx.wset.entries {
		tx.wset.entries[i].r.owner.Store(nil)
	}
	truncate(&tx.commitLocks)
	tx.observeLockHold()
	tx.phaseExit(pp)
	tx.finishCommit()
	return true
}

func (b *mvccBackend) abort(tx *Txn) {
	if tx.readOnly {
		// A snapshot transaction can only abort through its body (user error,
		// panic, Retry): it holds no locks and registers nowhere a contention
		// manager could doom it through. Release the reader; the accumulated
		// read counters still describe real reads, so flush them.
		b.releaseReader(tx)
		return
	}
	tx.releaseCommitLocks()
}

// releaseReader frees the attempt's watermark slot and unpins the epoch
// handle; the reader itself stays cached on the descriptor. Idempotent
// (commit and a subsequent rollback cannot double-release because mvccRO is
// cleared first).
func (b *mvccBackend) releaseReader(tx *Txn) {
	mr := tx.mvccRO
	if mr == nil {
		return
	}
	tx.mvccRO = nil
	tx.s.stats.MVCCSnapshotReads.Add(mr.reads)
	tx.s.stats.MVCCHistoryReads.Add(mr.hist)
	mr.slot.snap.Store(0)
	mr.eh.Unpin()
}

// getReader returns the descriptor's cached reader, minting it on first use:
// a watermark slot and an epoch handle, both kept for the reader's life. The
// slot goes back to the registry once the reader is collected (its epoch
// handle releases its own slot the same way). A collected reader's slot is
// free (0): only an attempt in flight holds a floor, and it keeps its
// descriptor, hence the reader, reachable.
func (b *mvccBackend) getReader(tx *Txn) *mvccReader {
	if mr := tx.mvccRd; mr != nil {
		return mr
	}
	mr := &mvccReader{eh: b.pool.Get()}
	mr.slot = conc.RegisterFor(&b.slots, mr)
	tx.mvccRd = mr
	return mr
}

// scanWatermark recomputes the per-shard watermark vector: wmVec[sh] =
// min(shard sh's clock, oldest active reader floor). The clock bound covers
// future readers — a snapshot reader serves a ref in shard sh from its
// per-shard capture rvVec[sh], which for any later-arriving reader is ≥ the
// clock value read here. The floor bound covers active readers. Clocks are
// read BEFORE slots — the order the sentinel protocol's soundness argument
// needs: a reader whose sentinel store this scan misses necessarily captured
// its snapshot after the scan's clock reads (sequentially consistent
// atomics), so its per-shard snapshots are ≥ the scan's clock values and the
// stored entries undercut it anyway.
//
// The bound is deliberately per shard, not the global clock minimum: an idle
// shard's unmoved clock would otherwise pin the watermark near zero for every
// shard and no history would ever be reclaimed.
func (b *mvccBackend) scanWatermark(s *STM) {
	var clocks [MaxShards]uint64
	for i := 0; i < s.nShards; i++ {
		clocks[i] = s.shards[i].clock.Load()
	}
	floor := ^uint64(0)
	for _, sl := range b.slots.Slots() {
		if v := sl.snap.Load(); v != 0 && v-1 < floor {
			floor = v - 1
		}
	}
	for i := 0; i < s.nShards; i++ {
		w := clocks[i]
		if floor < w {
			w = floor
		}
		b.wmVec[i].Store(w)
	}
}

// trimHistory bounds r's chain after an append, holding r's owner lock (a
// commit that found no reader registered retires the whole chain instead and
// never gets here): it keeps nodes down
// to (and including) the first with ver ≤ W (r's shard's watermark) and
// unlinks-then-retires the strictly older tail. Reclaiming only below such a
// node is sound for every reader: a reader needing a reclaimed node n* (the
// newest ≤ its per-shard snapshot) would imply a kept newer node m with
// m.ver ≤ W and m.ver > snap, i.e. W > snap — impossible, since W is ≤ every
// active reader's floor (its slot was scanned, or the clocks-before-slots
// order bounds it) and ≤ r's shard clock at scan time, which bounds every
// later arrival's per-shard snapshot for this ref from below.
//
// The version cap is enforced against W, not instead of it: when the chain
// exceeds the cap but the cap'th node still has ver > W, the watermark is
// rescanned eagerly (a reader may have exited since the cache was filled);
// if it still forbids the cut the overflow is counted and the cut falls back
// to the first ver ≤ W node — retention wins over the budget, never
// stranding a reader.
func (b *mvccBackend) trimHistory(tx *Txn, h *conc.EpochHandle[mvccVerNode], r *baseRef) uint64 {
	s := tx.s
	w := b.wmVec[r.shard].Load()
	cap := s.versionCap
	n := r.hist.Load()
	count := 0
	for n != nil {
		count++
		if n.ver <= w {
			break
		}
		if count >= cap {
			// Budget exhausted above the watermark: rescan eagerly, and if
			// the fresh watermark still pins the tail, keep walking to the
			// first reclaimable node and count the overflow.
			b.scanWatermark(s)
			w = b.wmVec[r.shard].Load()
			if n.ver <= w {
				break
			}
			s.stats.MVCCCapOverflows.Add(1)
			for n != nil && n.ver > w {
				n = n.next.Load()
			}
			break
		}
		n = n.next.Load()
	}
	if n == nil {
		return 0
	}
	tail := n.next.Load()
	if tail == nil {
		return 0
	}
	n.next.Store(nil)
	return retireChain(h, tail)
}

// retireChain retires every node of an already-unlinked chain and returns how
// many it retired.
func retireChain(h *conc.EpochHandle[mvccVerNode], n *mvccVerNode) uint64 {
	var retired uint64
	for n != nil {
		nx := n.next.Load()
		h.Retire(n)
		retired++
		n = nx
	}
	return retired
}

// noSnapshotReaders reports whether no watermark slot is held: every slot in
// the registry reads 0 (the pre-capture sentinel 1 counts as held). Called by
// an update commit after it has opened its publication window.
func (b *mvccBackend) noSnapshotReaders() bool {
	for _, sl := range b.slots.Slots() {
		if sl.snap.Load() != 0 {
			return false
		}
	}
	return true
}

// MVCCTelemetry is a point-in-time view of the mvcc backend's version-chain
// accounting, surfaced by (*STM).MVCCTelemetry for observability adapters.
type MVCCTelemetry struct {
	// VersionsLive is the number of history nodes currently reachable
	// (appended minus reclaimed).
	VersionsLive int64 `json:"versions_live"`
	// Watermark is the cached oldest-active snapshot floor.
	Watermark uint64 `json:"watermark"`
	// WatermarkLag is the distance from the watermark to the maximum shard
	// clock: how far history retention trails the commit frontier. A large
	// sustained lag means a long-running snapshot is pinning versions.
	WatermarkLag uint64 `json:"watermark_lag"`
	// ActiveSnapshots is the number of snapshot transactions currently
	// holding a watermark slot.
	ActiveSnapshots int `json:"active_snapshots"`
}

// MVCCTelemetry reports version-chain accounting when the instance runs the
// mvcc backend (directly or under the chaos wrapper); ok is false otherwise.
func (s *STM) MVCCTelemetry() (MVCCTelemetry, bool) {
	be := s.backend
	if cb, isChaos := be.(*chaosBackend); isChaos {
		be = cb.inner
	}
	b, isMVCC := be.(*mvccBackend)
	if !isMVCC {
		return MVCCTelemetry{}, false
	}
	var t MVCCTelemetry
	t.VersionsLive = b.versionsLive.Load()
	b.scanWatermark(s)
	var maxClock uint64
	for i := 0; i < s.nShards; i++ {
		if c := s.shards[i].clock.Load(); c > maxClock {
			maxClock = c
		}
	}
	// Report the reader-floor watermark against the commit frontier: with no
	// active snapshots the floor is unbounded and the lag is zero (idle
	// shards' low clocks are a per-shard trimming detail, not retention).
	w := ^uint64(0)
	for _, sl := range b.slots.Slots() {
		if v := sl.snap.Load(); v != 0 {
			t.ActiveSnapshots++
			if v-1 < w {
				w = v - 1
			}
		}
	}
	if w > maxClock {
		w = maxClock
	}
	t.Watermark = w
	t.WatermarkLag = maxClock - w
	return t, true
}
