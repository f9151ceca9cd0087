package stm

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// AbortCause classifies why a transaction attempt aborted. It is the unified
// abort-cause breakdown reported by Stats and Tracer across all backends.
type AbortCause int

const (
	// CauseNone marks a non-abort event.
	CauseNone AbortCause = iota
	// CauseLockConflict: the attempt lost a lock acquisition or contention
	// arbitration (encounter-time or commit-time).
	CauseLockConflict
	// CauseValidation: read-set validation failed (version- or value-based).
	CauseValidation
	// CauseDoomed: a contention manager doomed the attempt on behalf of
	// another transaction.
	CauseDoomed
	// CauseUser: the transaction body returned an error or panicked.
	CauseUser
	// CauseMaxAttempts: the transaction exhausted WithMaxAttempts and was
	// abandoned (reported once per transaction, after the final attempt's
	// own abort cause).
	CauseMaxAttempts
	// CauseChaos: the attempt was aborted by the fault-injection chaos
	// backend wrapper (WithChaos), not by a real conflict.
	CauseChaos
)

// String returns the cause name used in stats and trace output.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseLockConflict:
		return "lock-conflict"
	case CauseValidation:
		return "validation"
	case CauseDoomed:
		return "doomed"
	case CauseUser:
		return "user"
	case CauseMaxAttempts:
		return "max-attempts"
	case CauseChaos:
		return "chaos"
	default:
		return "unknown"
	}
}

// histSampleEvery: the duration histograms time one in every histSampleEvery
// transaction attempts on average (a power of two, 1<<histSampleShift: the
// draw tests the top histSampleShift bits of the attempt's mixed xorshift
// state, so lock-step workloads cannot alias the sampling pattern).
// Timing a commit costs two time.Now calls per histogram — a measurable
// fraction of a short transaction — so sampling keeps the instrumentation
// within the hot-path budget while the bucket distribution stays
// representative. Counters (commits, aborts by cause) are never sampled.
const (
	histSampleShift = 3
	histSampleEvery = 1 << histSampleShift
)

// HistogramSampleEvery is the exported sampling factor of the duration
// histograms: on average one in this many transaction attempts contributes
// observations. Snapshot bucket counts must be multiplied by it to estimate
// full-population counts; quantile estimates need no correction (sampling is
// unbiased across buckets). It is also carried on every DurationHistSnapshot
// as SampleEvery so JSON consumers cannot misread sampled counts as totals.
const HistogramSampleEvery = histSampleEvery

// histBuckets is the number of power-of-two duration buckets: bucket i counts
// durations whose nanosecond value has bit length i, i.e. [2^(i-1), 2^i) ns,
// with the last bucket absorbing everything longer (~34s and up at 36).
const histBuckets = 36

// DurationHist is a fixed-size power-of-two histogram of durations. Recording
// is a single atomic increment — no allocations, safe for the commit hot
// path under arbitrary concurrency.
type DurationHist struct {
	buckets [histBuckets]atomic.Uint64
}

// observe records one duration.
func (h *DurationHist) observe(d time.Duration) {
	ns := uint64(d)
	i := bits.Len64(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

func (h *DurationHist) snapshot() DurationHistSnapshot {
	var s DurationHistSnapshot
	s.SampleEvery = histSampleEvery
	s.Buckets = make([]uint64, histBuckets)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

func (h *DurationHist) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// DurationHistSnapshot is a point-in-time copy of a DurationHist. Bucket i
// counts durations in [2^(i-1), 2^i) nanoseconds.
//
// The histogram is sampled: only one in SampleEvery transaction attempts is
// timed, so Count and Buckets cover roughly 1/SampleEvery of the population.
// Multiply by SampleEvery to estimate full-population counts; Quantile needs
// no correction.
type DurationHistSnapshot struct {
	Buckets     []uint64 `json:"buckets"`
	Count       uint64   `json:"count"`
	SampleEvery uint64   `json:"sample_every"`
}

// EstimatedTotal estimates the full-population observation count by undoing
// the sampling factor.
func (s DurationHistSnapshot) EstimatedTotal() uint64 {
	if s.SampleEvery == 0 {
		return s.Count
	}
	return s.Count * s.SampleEvery
}

// BucketUpperNS returns the exclusive upper bound of bucket i in nanoseconds.
func (s DurationHistSnapshot) BucketUpperNS(i int) uint64 {
	if i <= 0 {
		return 1
	}
	return uint64(1) << i
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1).
func (s DurationHistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return time.Duration(s.BucketUpperNS(i))
		}
	}
	return time.Duration(s.BucketUpperNS(len(s.Buckets) - 1))
}

// paddedUint64 is an atomic counter padded out to a 64-byte cache line, so
// that counters bumped on every transaction do not false-share with each
// other or with the neighboring cold fields.
type paddedUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// Stats holds cumulative counters for an STM instance. Since every STM runs
// exactly one backend, these are the per-backend statistics of the unified
// instrumentation layer: throughput counters, the abort-cause breakdown, and
// commit-path duration histograms.
//
// The per-commit counters (Starts, Commits, Aborts) are padded to cache-line
// boundaries: they are incremented by every transaction on every thread, and
// unpadded they false-share both with one another and with the global
// version clock that precedes the stats in the STM struct. The abort-cause
// breakdown stays unpadded — those counters only move on the (already
// expensive) abort path.
type Stats struct {
	Starts  paddedUint64
	Commits paddedUint64
	Aborts  paddedUint64

	// Abort-cause breakdown.
	ConflictAborts    atomic.Uint64 // lost arbitration / lock acquisition
	ValidationAborts  atomic.Uint64 // read-set validation failure
	DoomedAborts      atomic.Uint64 // doomed by a contention manager
	UserAborts        atomic.Uint64 // fn returned an error
	MaxAttemptsAborts atomic.Uint64 // transactions abandoned by WithMaxAttempts
	ChaosAborts       atomic.Uint64 // injected by the chaos wrapper (WithChaos)

	// Robustness-layer counters.
	Escalations   atomic.Uint64 // transactions escalated to serial mode
	SerialCommits atomic.Uint64 // commits performed in serial (escalated) mode
	CanceledTxns  atomic.Uint64 // transactions abandoned via ctx cancellation
	DeadlineTxns  atomic.Uint64 // transactions abandoned via ctx deadline
	ClosedTxns    atomic.Uint64 // transactions failed by STM.Close

	// Sharded-timebase counters (see shard.go).
	CrossShardCommits atomic.Uint64 // commits whose write set spanned shards (epoch bumps)
	EpochExtensions   atomic.Uint64 // extensions forced by the epoch fence during capture

	// mvcc backend counters (see backend_mvcc.go); zero under other backends.
	MVCCSnapshotTxns      atomic.Uint64 // committed read-only snapshot transactions
	MVCCSnapshotReads     atomic.Uint64 // reads served under a snapshot vector
	MVCCHistoryReads      atomic.Uint64 // of those, served from a version chain (not the current value)
	MVCCVersionsAppended  atomic.Uint64 // displaced versions appended at publication
	MVCCVersionsReclaimed atomic.Uint64 // versions trimmed below the watermark or retired with no reader registered
	MVCCCapOverflows      atomic.Uint64 // trims where the watermark overrode the version cap

	// ValidationTime observes the duration of each commit-time read-set
	// validation pass (version- or value-based).
	ValidationTime DurationHist
	// LockHold observes, per writing transaction, how long write locks were
	// held: from the first lock acquisition (encounter-time backends) or the
	// start of the commit lock phase (lazy backends) until release.
	LockHold DurationHist
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Starts  uint64 `json:"starts"`
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`

	ConflictAborts    uint64 `json:"conflict_aborts"`
	ValidationAborts  uint64 `json:"validation_aborts"`
	DoomedAborts      uint64 `json:"doomed_aborts"`
	UserAborts        uint64 `json:"user_aborts"`
	MaxAttemptsAborts uint64 `json:"max_attempts_aborts"`
	ChaosAborts       uint64 `json:"chaos_aborts"`

	Escalations   uint64 `json:"escalations"`
	SerialCommits uint64 `json:"serial_commits"`
	CanceledTxns  uint64 `json:"canceled_txns"`
	DeadlineTxns  uint64 `json:"deadline_txns"`
	ClosedTxns    uint64 `json:"closed_txns"`

	CrossShardCommits uint64 `json:"cross_shard_commits"`
	EpochExtensions   uint64 `json:"epoch_extensions"`

	// Never written; kept for their one reader, benchmark/run.go.
	GroupCommits            uint64 `json:"group_commits"`
	ValidationShardsChecked uint64 `json:"validation_shards_checked"`
	ValidationShardsSkipped uint64 `json:"validation_shards_skipped"`

	MVCCSnapshotTxns      uint64 `json:"mvcc_snapshot_txns"`
	MVCCSnapshotReads     uint64 `json:"mvcc_snapshot_reads"`
	MVCCHistoryReads      uint64 `json:"mvcc_history_reads"`
	MVCCVersionsAppended  uint64 `json:"mvcc_versions_appended"`
	MVCCVersionsReclaimed uint64 `json:"mvcc_versions_reclaimed"`
	MVCCCapOverflows      uint64 `json:"mvcc_cap_overflows"`

	ValidationTime DurationHistSnapshot `json:"validation_time"`
	LockHold       DurationHistSnapshot `json:"lock_hold"`
}

// AbortsByCause returns the abort-cause breakdown keyed by cause name.
func (s StatsSnapshot) AbortsByCause() map[string]uint64 {
	return map[string]uint64{
		CauseLockConflict.String(): s.ConflictAborts,
		CauseValidation.String():   s.ValidationAborts,
		CauseDoomed.String():       s.DoomedAborts,
		CauseUser.String():         s.UserAborts,
		CauseMaxAttempts.String():  s.MaxAttemptsAborts,
		CauseChaos.String():        s.ChaosAborts,
	}
}

func (st *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Starts:                st.Starts.Load(),
		Commits:               st.Commits.Load(),
		Aborts:                st.Aborts.Load(),
		ConflictAborts:        st.ConflictAborts.Load(),
		ValidationAborts:      st.ValidationAborts.Load(),
		DoomedAborts:          st.DoomedAborts.Load(),
		UserAborts:            st.UserAborts.Load(),
		MaxAttemptsAborts:     st.MaxAttemptsAborts.Load(),
		ChaosAborts:           st.ChaosAborts.Load(),
		Escalations:           st.Escalations.Load(),
		SerialCommits:         st.SerialCommits.Load(),
		CanceledTxns:          st.CanceledTxns.Load(),
		DeadlineTxns:          st.DeadlineTxns.Load(),
		ClosedTxns:            st.ClosedTxns.Load(),
		CrossShardCommits:     st.CrossShardCommits.Load(),
		EpochExtensions:       st.EpochExtensions.Load(),
		MVCCSnapshotTxns:      st.MVCCSnapshotTxns.Load(),
		MVCCSnapshotReads:     st.MVCCSnapshotReads.Load(),
		MVCCHistoryReads:      st.MVCCHistoryReads.Load(),
		MVCCVersionsAppended:  st.MVCCVersionsAppended.Load(),
		MVCCVersionsReclaimed: st.MVCCVersionsReclaimed.Load(),
		MVCCCapOverflows:      st.MVCCCapOverflows.Load(),
		ValidationTime:        st.ValidationTime.snapshot(),
		LockHold:              st.LockHold.snapshot(),
	}
}

func (st *Stats) reset() {
	st.Starts.Store(0)
	st.Commits.Store(0)
	st.Aborts.Store(0)
	st.ConflictAborts.Store(0)
	st.ValidationAborts.Store(0)
	st.DoomedAborts.Store(0)
	st.UserAborts.Store(0)
	st.MaxAttemptsAborts.Store(0)
	st.ChaosAborts.Store(0)
	st.Escalations.Store(0)
	st.SerialCommits.Store(0)
	st.CanceledTxns.Store(0)
	st.DeadlineTxns.Store(0)
	st.ClosedTxns.Store(0)
	st.CrossShardCommits.Store(0)
	st.EpochExtensions.Store(0)
	st.MVCCSnapshotTxns.Store(0)
	st.MVCCSnapshotReads.Store(0)
	st.MVCCHistoryReads.Store(0)
	st.MVCCVersionsAppended.Store(0)
	st.MVCCVersionsReclaimed.Store(0)
	st.MVCCCapOverflows.Store(0)
	st.ValidationTime.reset()
	st.LockHold.reset()
}

// countAbort records one abort with its cause.
func (st *Stats) countAbort(cause AbortCause) {
	st.Aborts.Add(1)
	switch cause {
	case CauseLockConflict:
		st.ConflictAborts.Add(1)
	case CauseValidation:
		st.ValidationAborts.Add(1)
	case CauseDoomed:
		st.DoomedAborts.Add(1)
	case CauseUser:
		st.UserAborts.Add(1)
	case CauseChaos:
		st.ChaosAborts.Add(1)
	}
}
