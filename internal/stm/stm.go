// Package stm implements a word-based software transactional memory in the
// TL2 lineage, built from scratch for the Proust reproduction.
//
// The STM provides:
//
//   - Versioned transactional references (Ref[T]) stamped by a sharded
//     timebase: per-shard commit clocks (refs map to shards by id block)
//     with a global cross-shard epoch. See shard.go and DESIGN.md §11.
//   - Opaque transactions: every transactional read is validated against the
//     transaction's per-shard read-version vector, with read-set
//     revalidation and clock extension on failure, so no transaction (not
//     even one that will later abort) observes an inconsistent memory
//     snapshot.
//   - Pluggable conflict-detection backends reproducing the right-hand table
//     of Figure 1 in the Proust paper, selected by registry name: "tl2"
//     (lazy/lazy, TL2-like), "ccstm" (eager w/w, lazy r/w — the paper's
//     default backend), "eager" (visible readers, all conflicts detected at
//     encounter time) and "norec" (no per-reference metadata, value-based
//     validation under a global sequence lock). See Backend.
//   - Contention management (polite backoff, and greedy timestamp where the
//     older transaction wins and may doom the younger).
//   - Transaction lifecycle hooks. OnCommitLocked runs inside the commit
//     critical section, after validation succeeds and while the write set is
//     still locked; this is precisely where Proust replay logs must be
//     applied ("behind the STM's native locking mechanisms", Section 4 of
//     the paper).
//   - Transaction-local storage (TxnLocal) used to carry replay logs.
//   - Unified per-backend instrumentation: an abort-cause breakdown,
//     commit-time validation and lock-hold duration histograms (Stats), and
//     an optional lifecycle Tracer.
//
// Transactions are executed with (*STM).Atomically. Internal conflicts are
// signalled by panicking with a private sentinel that Atomically recovers;
// this never escapes the package. Errors returned by the transaction body
// abort the transaction and are returned to the caller without retrying.
package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DetectionPolicy classifies when an STM backend detects read-write and
// write-write conflicts. It reproduces the STM strategy table of Figure 1;
// each registered Backend maps to exactly one policy.
type DetectionPolicy int

const (
	// LazyLazy buffers writes in a redo log and acquires write locks only
	// at commit time (in global reference order); read-write conflicts are
	// found by commit-time read-set validation. This is the TL2 family:
	// lazy w/w and lazy r/w detection. Implemented by the "tl2" backend.
	LazyLazy DetectionPolicy = iota + 1
	// MixedEagerWWLazyRW acquires write locks at encounter time with an
	// undo log (eager w/w detection) but keeps readers invisible and
	// validates the read set at commit (lazy r/w detection). This matches
	// CCSTM, the default ScalaSTM backend used in the paper's evaluation.
	// Implemented by the "ccstm" backend.
	MixedEagerWWLazyRW
	// EagerEager acquires write locks at encounter time and additionally
	// registers visible readers on every reference, so a writer detects
	// and arbitrates read-write conflicts the moment it tries to acquire
	// the reference. All conflicts are detected eagerly, which is the STM
	// requirement of Theorem 5.2 (Eager/Optimistic Proust is opaque).
	// Implemented by the "eager" backend.
	EagerEager
	// NOrec keeps no per-reference metadata: a single global sequence
	// lock orders commits and readers validate by value (box identity).
	// Lazy w/w and lazy r/w detection, like LazyLazy, but with O(1) space
	// overhead and value-based validation (Dalessandro, Spear, Scott —
	// PPoPP 2010; cited as [8] in the paper's Figure 1 classification).
	// Implemented by the "norec" backend.
	NOrec
	// MultiVersion keeps a bounded newest-first version history on every
	// reference, stamped by the sharded timebase. Update transactions behave
	// like LazyLazy (redo log, commit-time locking, invisible readers,
	// commit-time validation) but additionally append the displaced version
	// to the reference's history at publication; transactions declared
	// read-only (WithReadOnly) capture a shard-clock snapshot vector once and
	// serve every read from the newest version at or below it — no read log,
	// no validation, no conflict aborts. This is the MVCC point of the design
	// space (Proust §6 lists multi-versioning among the composable STM-level
	// strategies). Implemented by the "mvcc" backend.
	MultiVersion
)

// String returns the policy name used in benchmark output.
func (p DetectionPolicy) String() string {
	switch p {
	case LazyLazy:
		return "lazy-lazy"
	case MixedEagerWWLazyRW:
		return "mixed"
	case EagerEager:
		return "eager-eager"
	case NOrec:
		return "norec"
	case MultiVersion:
		return "multi-version"
	default:
		return fmt.Sprintf("DetectionPolicy(%d)", int(p))
	}
}

// EagerWriteLocks reports whether the policy acquires write locks at
// encounter time rather than at commit time.
func (p DetectionPolicy) EagerWriteLocks() bool {
	return p == MixedEagerWWLazyRW || p == EagerEager
}

// ErrMaxAttempts is returned by Atomically when a transaction exceeds the
// configured maximum number of attempts. Only conflict aborts (lost
// arbitration, failed validation, being doomed, injected faults) advance the
// abandonment counter; Retry wake-ups do not — a transaction legitimately
// blocked on Retry is never abandoned, no matter how many unrelated commits
// wake it.
var ErrMaxAttempts = errors.New("stm: transaction exceeded maximum attempts")

// ErrCanceled is returned by AtomicallyCtx when the context is canceled
// before the transaction commits.
var ErrCanceled = errors.New("stm: transaction canceled")

// ErrDeadline is returned by AtomicallyCtx when the context's deadline
// expires before the transaction commits.
var ErrDeadline = errors.New("stm: transaction deadline exceeded")

// ErrClosed is returned by Atomically and AtomicallyCtx when the STM
// instance has been closed: blocked Retry waiters wake and fail with it, and
// in-flight transactions fail with it at their next attempt boundary.
var ErrClosed = errors.New("stm: transactional memory closed")

// STM is an instance of the transactional memory: a sharded timebase
// (per-shard commit clocks plus a cross-shard epoch), a conflict-detection
// backend, a contention manager and statistics. All references participating
// in the same transactions must be created against the same STM.
type STM struct {
	// The two hottest instance-wide atomics get a cache line each: epochClk
	// is read by every cross-shard vector capture and bumped by cross-shard
	// commits, txnIDs is bumped on every attempt. The per-shard commit
	// clocks — the Add-contended successors of the old single global clock —
	// each live on their own line inside shards.
	epochClk atomic.Uint64 // cross-shard commit epoch (reader fence)
	_        [56]byte
	txnIDs   atomic.Uint64 // unique transaction serials
	_        [56]byte

	// shards partitions the timebase: refs map to shards in id blocks
	// (shardOf), each shard holding a padded commit clock. Sized once in
	// New to AutoShardCount.
	shards    []stmShard
	nShards   int
	shardMask uint64

	// versionCap bounds the per-reference version history of the mvcc
	// backend (WithVersionCap, default 8). Other backends ignore it.
	versionCap int

	refIDs   atomic.Uint64 // unique reference ids (commit-time lock order)
	backend  Backend
	cm       ContentionManager
	tracer   Tracer
	phaser   PhaseTracer  // tracer's PhaseTracer facet, nil when phase-blind
	stampTS  bool         // tracer attached and not TimestampFree
	now      func() int64 // TraceEvent timestamp clock, nil = wall time
	maxTries int
	stats    Stats
	epoch    time.Time // monotonic base for compact in-Txn timestamps
	epochNS  int64     // wall nanoseconds at epoch (TraceEvent.TS base)

	retryMu  sync.Mutex
	retryCv  *sync.Cond
	retryGen uint64

	// closed is set (under retryMu, for the Retry wake-up handshake) by
	// Close; the attempt loop polls it with a single atomic load.
	closed atomic.Bool

	// esc is the starvation-escalation token; nil (the default) disables
	// escalation and keeps the attempt loop branch-predictable. See
	// escalate.go.
	esc *escalation

	// chaosCfg, when non-nil, wraps the selected backend in the
	// fault-injection chaos wrapper after option application. See chaos.go.
	chaosCfg *ChaosConfig

	// txnPool recycles transaction descriptors (with their log arrays and
	// TxnLocal maps) so the steady-state hot path allocates nothing per
	// transaction. Descriptors never migrate between instances: Txn.s is
	// assigned once, on the pool miss that allocates the descriptor.
	txnPool sync.Pool
}

// Option configures an STM instance.
type Option interface {
	apply(*STM)
}

type policyOption DetectionPolicy

func (o policyOption) apply(s *STM) {
	f, ok := backendForPolicy(DetectionPolicy(o))
	if !ok {
		panic(fmt.Sprintf("stm: no backend registered for policy %v", DetectionPolicy(o)))
	}
	s.backend = f.New()
}

// WithPolicy selects the backend implementing the given conflict-detection
// policy. It is the classification-based compatibility spelling of
// WithBackend; the default is MixedEagerWWLazyRW ("ccstm"), matching the
// backend used by the paper.
func WithPolicy(p DetectionPolicy) Option { return policyOption(p) }

type cmOption struct{ cm ContentionManager }

func (o cmOption) apply(s *STM) { s.cm = o.cm }

// WithContentionManager selects the contention manager. The default is
// Backoff.
func WithContentionManager(cm ContentionManager) Option { return cmOption{cm: cm} }

type maxTriesOption int

func (o maxTriesOption) apply(s *STM) { s.maxTries = int(o) }

// WithMaxAttempts bounds the number of attempts per transaction; Atomically
// returns ErrMaxAttempts when exceeded. Zero (the default) means unbounded.
func WithMaxAttempts(n int) Option { return maxTriesOption(n) }

type versionCapOption int

func (o versionCapOption) apply(s *STM) { s.versionCap = int(o) }

// WithVersionCap sets the per-reference version-history budget of the mvcc
// backend (default 8, minimum 1): the number of displaced versions a
// reference retains for snapshot readers before the writer-side trim starts
// reclaiming aggressively. The budget is soft against active readers — a
// version some in-flight snapshot still needs is never reclaimed (that would
// strand the reader); the overflow is counted instead (see Stats
// MVCCCapOverflows) and the history shrinks back once the reader exits.
// Other backends ignore this option.
func WithVersionCap(n int) Option { return versionCapOption(n) }

// New creates an STM instance. The default backend is "ccstm"
// (MixedEagerWWLazyRW), matching the paper's evaluation.
func New(opts ...Option) *STM {
	s := &STM{
		cm:    Backoff{},
		epoch: time.Now(),
	}
	s.epochNS = s.epoch.UnixNano()
	for _, o := range opts {
		o.apply(s)
	}
	if s.versionCap <= 0 {
		s.versionCap = DefaultVersionCap
	}
	s.setShards(AutoShardCount())
	if s.backend == nil {
		f, ok := BackendByName(DefaultBackend)
		if !ok {
			panic("stm: default backend not registered")
		}
		s.backend = f.New()
	}
	if s.chaosCfg != nil {
		s.backend = newChaosBackend(s.backend, *s.chaosCfg)
	}
	s.retryCv = sync.NewCond(&s.retryMu)
	return s
}

// setShards sizes the timebase to n shards (a power of two ≤ MaxShards). It
// runs before any reference or descriptor of the instance exists.
func (s *STM) setShards(n int) {
	s.nShards = n
	s.shardMask = uint64(n - 1)
	s.shards = make([]stmShard, n)
}

// DefaultBackend is the registry name of the backend New selects when no
// WithBackend/WithPolicy option is given.
const DefaultBackend = "ccstm"

// Policy returns the conflict-detection classification of this instance's
// backend.
func (s *STM) Policy() DetectionPolicy { return s.backend.Policy() }

// Backend returns the backend instance of this STM.
func (s *STM) Backend() Backend { return s.backend }

// GlobalClock returns the logical commit clock of the instance: the sum of
// the per-shard commit clocks. With one shard this is exactly the classic
// TL2 global version clock; with more it still advances by at least one per
// versioned writing commit, so dashboards and tests observe a monotonically advancing value rather
// than a frozen pre-sharding field. The cross-shard epoch is exposed
// separately via Epoch.
func (s *STM) GlobalClock() uint64 {
	var sum uint64
	for i := range s.shards {
		sum += s.shards[i].clock.Load()
	}
	return sum
}

// sinceEpoch returns monotonic nanoseconds since the instance was created.
// Duration stamps stored inside Txn use this compact form (8 bytes instead of
// time.Time's 24) to keep the descriptor small.
func (s *STM) sinceEpoch() int64 { return int64(time.Since(s.epoch)) }

// nowNanos reads the instance timestamp clock (wall time unless WithClock
// injected one). Only called on traced event paths; the default derives wall
// nanoseconds as epoch + monotonic elapsed, which reads just the monotonic
// clock — roughly half the cost of time.Now's wall+monotonic read, and it
// keeps TS stamps of one instance strictly consistent with each other.
func (s *STM) nowNanos() int64 {
	if s.now != nil {
		return s.now()
	}
	return s.epochNS + s.sinceEpoch()
}

// Atomically runs fn as a transaction, retrying on conflicts until it either
// commits or fn returns a non-nil error (which aborts the transaction and is
// returned verbatim). On a closed instance it returns ErrClosed.
func (s *STM) Atomically(fn func(tx *Txn) error) error {
	return s.run(nil, fn)
}

// AtomicallyCtx runs fn as a transaction like Atomically, additionally
// observing ctx: backoff sleeps and Retry waits wake on ctx.Done(), and the
// transaction stops retrying between attempts with ErrDeadline (deadline
// expiry) or ErrCanceled (cancellation). An attempt already executing is
// never interrupted mid-body — cancellation takes effect at the next attempt
// boundary, so a transaction that commits concurrently with cancellation
// stays committed. A nil ctx is exactly Atomically: the fast path performs
// one nil check per attempt and allocates nothing extra.
func (s *STM) AtomicallyCtx(ctx context.Context, fn func(tx *Txn) error) error {
	return s.run(ctx, fn)
}

// roHintKey marks a context carrying the read-only transaction hint.
type roHintKey struct{}

// WithReadOnly returns a context that declares every transaction run under it
// (via AtomicallyCtx, or core.Do and the ADT operations it wraps) read-only:
// the body performs no Ref writes — a write panics, making a violated
// declaration a loud programming error rather than a silent anomaly.
//
// The hint is advisory for most backends (their read-only commit fast paths
// already apply), but under the mvcc backend it changes the read protocol:
// the transaction captures a shard-clock snapshot vector once at begin and
// serves every read from the newest version at or below the snapshot — no
// read log, no validation, no conflict aborts, and no fault injection from
// the chaos wrapper (there is no validation or commit protocol to inject
// faults into). A nil ctx is accepted and treated as context.Background().
func WithReadOnly(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, roHintKey{}, true)
}

// ReadOnlyHinted reports whether ctx carries the WithReadOnly hint.
func ReadOnlyHinted(ctx context.Context) bool {
	return ctx != nil && ctx.Value(roHintKey{}) != nil
}

// run is the shared attempt loop of Atomically and AtomicallyCtx.
//
// The loop keeps two distinct counters: tx.attempt counts body executions
// (including Retry wake-ups; it feeds the state word, sampling and traces),
// while the local failures counter counts only conflict aborts. WithMaxAttempts
// abandonment and starvation escalation are driven by failures — a consumer
// blocked on Retry is woken by every unrelated commit, and those wake-ups
// must neither abandon it (the spurious-ErrMaxAttempts bug) nor escalate it.
func (s *STM) run(ctx context.Context, fn func(tx *Txn) error) error {
	tx := s.newTxn()
	tx.readOnly = ReadOnlyHinted(ctx)
	err := s.runTxn(ctx, tx, fn)
	// Only reached on ordinary returns: a panic out of user code skips the
	// release and the descriptor falls to the garbage collector, which is
	// exactly right — a panicking body may have leaked tx-captured state.
	s.releaseTxn(tx)
	return err
}

// runTxn is the attempt loop proper, separated from run so that descriptor
// release happens strictly after the deferred escalation unpin below.
func (s *STM) runTxn(ctx context.Context, tx *Txn, fn func(tx *Txn) error) error {
	esc := s.esc
	if esc != nil {
		// A panic out of user code must not leak the escalation token; the
		// release is idempotent (tx.escHeld guards it), so the explicit
		// releases on the ordinary paths below stay cheap.
		defer esc.unpin(tx)
	}
	failures := 0
	// retryGen is a retry generation sampled before the current body
	// execution began, valid once retryArmed. A Retry may only sleep on such a
	// sample: one taken after the body ran cannot tell whether a commit landed
	// between the body's reads and the sample, and that commit may be the only
	// one that ever satisfies the body.
	var retryGen uint64
	retryArmed := false
	for {
		if s.closed.Load() {
			s.stats.ClosedTxns.Add(1)
			return ErrClosed
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return s.ctxErr(err)
			}
		}
		if s.maxTries > 0 && failures >= s.maxTries {
			s.stats.MaxAttemptsAborts.Add(1)
			tx.traceAbort(CauseMaxAttempts)
			return ErrMaxAttempts
		}
		if esc != nil {
			esc.pin(tx, failures)
		}
		tx.beginAttempt()
		s.stats.Starts.Add(1)
		err, sig := tx.runBody(fn)
		switch sig {
		case sigNone:
			if err != nil {
				tx.rollback(CauseUser)
				if esc != nil {
					esc.unpin(tx)
				}
				return err
			}
			if tx.commit() {
				if tx.serialMode {
					s.stats.SerialCommits.Add(1)
				}
				if esc != nil {
					esc.unpin(tx)
				}
				s.notifyCommit()
				return nil
			}
			failures++
			if esc != nil {
				esc.unpinShared(tx)
			}
			tx.backoff(ctx, failures)
		case sigConflict:
			failures++
			if esc != nil {
				esc.unpinShared(tx)
			}
			tx.backoff(ctx, failures)
		case sigRetry:
			if esc != nil {
				// Drop even an exclusive token: a Retry needs some other
				// transaction to commit, which the token would forbid.
				esc.unpin(tx)
			}
			// The first Retry of a transaction has no earlier sample: take one
			// and re-execute at once. Every later Retry waits on the sample
			// that predates the body it just ran, then re-samples for the next.
			if retryArmed {
				s.waitCommit(ctx, retryGen)
			}
			retryGen, retryArmed = s.retryGeneration(), true
		}
	}
}

// ctxErr maps a context error onto the package's typed errors, counting the
// abandonment.
func (s *STM) ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.DeadlineTxns.Add(1)
		return ErrDeadline
	}
	s.stats.CanceledTxns.Add(1)
	return ErrCanceled
}

// Close marks the instance closed: blocked Retry waiters wake and their
// transactions fail with ErrClosed, and new or conflicted transactions fail
// with ErrClosed at their next attempt boundary. An attempt already executing
// is never interrupted — work that commits concurrently with Close stays
// committed. Close is idempotent and safe to call concurrently with running
// transactions; after it returns, no goroutine stays blocked inside this
// instance.
func (s *STM) Close() {
	s.retryMu.Lock()
	s.closed.Store(true)
	s.retryMu.Unlock()
	s.retryCv.Broadcast()
}

// Closed reports whether Close has been called.
func (s *STM) Closed() bool { return s.closed.Load() }

// AtomicallyResult runs fn as a transaction and returns its result. It is a
// generic convenience wrapper over (*STM).Atomically.
func AtomicallyResult[T any](s *STM, fn func(tx *Txn) (T, error)) (T, error) {
	return AtomicallyCtxResult(nil, s, fn)
}

// AtomicallyCtxResult runs fn as a context-aware transaction and returns its
// result. It is the generic convenience wrapper over (*STM).AtomicallyCtx; a
// nil ctx is exactly AtomicallyResult.
func AtomicallyCtxResult[T any](ctx context.Context, s *STM, fn func(tx *Txn) (T, error)) (T, error) {
	var out T
	err := s.run(ctx, func(tx *Txn) error {
		v, err := fn(tx)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Stats returns a snapshot of the instance counters.
func (s *STM) Stats() StatsSnapshot { return s.stats.snapshot() }

// ResetStats zeroes the instance counters.
func (s *STM) ResetStats() { s.stats.reset() }

func (s *STM) retryGeneration() uint64 {
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	return s.retryGen
}

func (s *STM) notifyCommit() {
	s.retryMu.Lock()
	s.retryGen++
	s.retryMu.Unlock()
	s.retryCv.Broadcast()
}

// waitCommit blocks the Retry-ing transaction until a commit advances the
// retry generation past gen, the instance closes, or (when ctx is non-nil)
// ctx is done. The caller re-checks closed/ctx at the top of the attempt
// loop, so waitCommit only needs to wake, not to report why.
func (s *STM) waitCommit(ctx context.Context, gen uint64) {
	if ctx == nil {
		s.retryMu.Lock()
		defer s.retryMu.Unlock()
		for s.retryGen == gen && !s.closed.Load() {
			s.retryCv.Wait()
		}
		return
	}
	// ctx-aware wait: a watcher goroutine converts ctx.Done into a condvar
	// broadcast. Broadcasting under retryMu ensures the waiter is either
	// inside Wait (the broadcast reaches it) or has not yet re-checked the
	// loop condition (it will observe ctx.Err() != nil), so the wake-up
	// cannot be lost.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.retryMu.Lock()
			s.retryCv.Broadcast()
			s.retryMu.Unlock()
		case <-stop:
		}
	}()
	defer close(stop)
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	for s.retryGen == gen && !s.closed.Load() && ctx.Err() == nil {
		s.retryCv.Wait()
	}
}
