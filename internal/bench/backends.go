package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proust/internal/stm"
)

// This file benchmarks the STM backends themselves (as opposed to the
// Proustian map systems of Figure 4): every backend in the stm registry runs
// the same mixed read/write workload over a flat array of transactional
// refs, producing the per-backend throughput/abort-rate trajectory recorded
// in bench/history/BENCH_stm_backends.json. It also consumes the stm.Tracer
// hook, so each result carries the unified per-backend instrumentation
// (abort-cause breakdown plus commit-path histograms) for JSON export by
// proust-bench.

// BackendBenchConfig parameterizes the per-backend sweep.
type BackendBenchConfig struct {
	Threads       []int   `json:"threads"`
	KeyRange      int     `json:"key_range"`
	OpsPerTxn     int     `json:"ops_per_txn"`
	WriteFraction float64 `json:"write_fraction"`
	TotalOps      int     `json:"total_ops"`
	Seed          uint64  `json:"seed"`
	Warmups       int     `json:"warmups"`
	Reps          int     `json:"reps"`
	// Interleave yields the processor after every operation inside a
	// transaction (see Workload.Interleave).
	Interleave bool `json:"interleave,omitempty"`
	// ReadTxnFraction, when > 0, makes roughly this fraction of transactions
	// pure read-only transactions (all Gets), declared via stm.WithReadOnly —
	// the read-heavy mixes (95/5, 99/1) the mvcc backend's snapshot reads are
	// built for. The remaining transactions run the normal mixed body with
	// WriteFraction writes per op. The transaction-level draw is deterministic
	// given (Seed, thread id).
	ReadTxnFraction float64 `json:"read_txn_fraction,omitempty"`
	// ReadTxnOps is the operation count of each read-only transaction (their
	// scan length); 0 uses OpsPerTxn. Read-dominated workloads are typically
	// scan-shaped — lookups batched into larger read-only transactions — so
	// the read-heavy experiment defaults this to DefaultReadTxnOps while
	// update transactions keep OpsPerTxn.
	ReadTxnOps int `json:"read_txn_ops,omitempty"`
	// VersionCap, when > 0, sets the mvcc backend's per-reference version
	// budget (stm.WithVersionCap); other backends ignore it.
	VersionCap int `json:"version_cap,omitempty"`
}

// DefaultReadTxnOps is the read-heavy experiment's default read-only
// transaction scan length.
const DefaultReadTxnOps = 16

// DefaultBackendBench is the configuration used for the recorded baseline:
// t ∈ {1,4,8}, 1024 refs, 4 ops per transaction, 50% writes.
func DefaultBackendBench() BackendBenchConfig {
	return BackendBenchConfig{
		Threads:       []int{1, 4, 8},
		KeyRange:      1024,
		OpsPerTxn:     4,
		WriteFraction: 0.5,
		TotalOps:      200000,
		Seed:          42,
		Warmups:       1,
		Reps:          2,
	}
}

// causeSlots bounds the abort-cause space CauseTracer tracks; stm.AbortCause
// values are a small dense enum.
const causeSlots = 8

// CauseTracer implements stm.Tracer, aggregating lifecycle events into an
// abort-cause breakdown. It is the bench-side consumer of the tracer hook.
// All counters are atomics: the tracer runs inside every commit and abort,
// so it must not introduce a lock the benchmark would then measure.
type CauseTracer struct {
	commits    atomic.Uint64
	aborts     [causeSlots]atomic.Uint64
	maxAttempt atomic.Int64
}

var _ stm.Tracer = (*CauseTracer)(nil)

// TimestampFree implements stm.TimestampFree: the tracer only counts events,
// so the STM can skip the per-event clock read.
func (ct *CauseTracer) TimestampFree() {}

// Trace implements stm.Tracer.
func (ct *CauseTracer) Trace(ev stm.TraceEvent) {
	switch ev.Kind {
	case stm.TraceCommit:
		ct.commits.Add(1)
	case stm.TraceAbort:
		if i := int(ev.Cause); i >= 0 && i < causeSlots {
			ct.aborts[i].Add(1)
		}
	}
	for {
		cur := ct.maxAttempt.Load()
		if int64(ev.Attempt) <= cur || ct.maxAttempt.CompareAndSwap(cur, int64(ev.Attempt)) {
			return
		}
	}
}

// Summary returns the aggregated trace.
func (ct *CauseTracer) Summary() TraceSummary {
	out := TraceSummary{
		Commits:       ct.commits.Load(),
		AbortsByCause: make(map[string]uint64),
		MaxAttempt:    int(ct.maxAttempt.Load()),
	}
	for i := range ct.aborts {
		if n := ct.aborts[i].Load(); n > 0 {
			out.AbortsByCause[stm.AbortCause(i).String()] += n
		}
	}
	return out
}

// TraceSummary is the JSON-exported aggregate of one benchmarked run's
// tracer events.
type TraceSummary struct {
	Commits       uint64            `json:"commits"`
	AbortsByCause map[string]uint64 `json:"aborts_by_cause"`
	MaxAttempt    int               `json:"max_attempt"`
}

// BackendResult is one backend × thread-count measurement.
type BackendResult struct {
	Backend   string  `json:"backend"`
	Threads   int     `json:"threads"`
	OpsPerSec float64 `json:"ops_per_sec"`
	AbortRate float64 `json:"abort_rate"`
	// ValidationP50NS and LockHoldP50NS are upper-bound estimates of the
	// median commit-time validation and lock-hold durations.
	ValidationP50NS int64 `json:"validation_p50_ns"`
	LockHoldP50NS   int64 `json:"lock_hold_p50_ns"`

	Stats stm.StatsSnapshot `json:"stats"`
	Trace TraceSummary      `json:"trace"`
}

// RunBackendBench runs the flat-ref workload once on the named backend.
func RunBackendBench(backendName string, threads int, cfg BackendBenchConfig) (BackendResult, error) {
	if _, ok := stm.BackendByName(backendName); !ok {
		return BackendResult{}, fmt.Errorf("bench: unknown backend %q (valid: %v)", backendName, stm.BackendNames())
	}
	tracer := &CauseTracer{}
	opts := []stm.Option{stm.WithBackend(backendName), stm.WithTracer(tracer)}
	if cfg.VersionCap > 0 {
		opts = append(opts, stm.WithVersionCap(cfg.VersionCap))
	}
	s := stm.New(opts...)
	refs := make([]*stm.Ref[int], cfg.KeyRange)
	for i := range refs {
		refs[i] = stm.NewRef(s, i)
	}
	txns := cfg.TotalOps / cfg.OpsPerTxn
	perThread := txns / threads
	if perThread == 0 {
		perThread = 1
	}
	roOps := cfg.ReadTxnOps
	if roOps <= 0 {
		roOps = cfg.OpsPerTxn
	}
	s.ResetStats()
	var opsDone atomic.Uint64 // read-only and update txn sizes may differ
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := newRNG(cfg.Seed + uint64(id)*0x1000193)
			w := Workload{KeyRange: cfg.KeyRange, WriteFraction: cfg.WriteFraction,
				Seed: cfg.Seed}
			roCut := uint64(cfg.ReadTxnFraction * (1 << 32))
			roCtx := stm.WithReadOnly(nil)
			done := uint64(0)
			defer func() { opsDone.Add(done) }()
			for i := 0; i < perThread; i++ {
				if roCut > 0 && uint64(uint32(r.next())) < roCut {
					// Read-only transaction: roOps Gets (the scan shape),
					// declared via the WithReadOnly hint (snapshot reads
					// under mvcc).
					done += uint64(roOps)
					_ = s.AtomicallyCtx(roCtx, func(tx *stm.Txn) error {
						for j := 0; j < roOps; j++ {
							op := genOp(r, w)
							_ = refs[op.Key].Get(tx)
							if cfg.Interleave {
								runtime.Gosched()
							}
						}
						return nil
					})
					continue
				}
				done += uint64(cfg.OpsPerTxn)
				_ = s.Atomically(func(tx *stm.Txn) error {
					for j := 0; j < cfg.OpsPerTxn; j++ {
						op := genOp(r, w)
						if op.Kind == OpGet || op.Kind == OpRemove {
							_ = refs[op.Key].Get(tx)
						} else {
							refs[op.Key].Set(tx, op.Val)
						}
						if cfg.Interleave {
							runtime.Gosched()
						}
					}
					return nil
				})
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := s.Stats()
	total := float64(opsDone.Load())
	rate := 0.0
	if st.Commits+st.Aborts > 0 {
		rate = float64(st.Aborts) / float64(st.Commits+st.Aborts)
	}
	return BackendResult{
		Backend:         backendName,
		Threads:         threads,
		OpsPerSec:       total / elapsed.Seconds(),
		AbortRate:       rate,
		ValidationP50NS: int64(st.ValidationTime.Quantile(0.5)),
		LockHoldP50NS:   int64(st.LockHold.Quantile(0.5)),
		Stats:           st,
		Trace:           tracer.Summary(),
	}, nil
}

// ReadHeavyMixes are the read-only-transaction fractions of the read-heavy
// experiment: the 95/5 and 99/1 mixes of the mvcc backend's evaluation.
var ReadHeavyMixes = []float64{0.95, 0.99}

// ReadHeavyResult is one backend × thread-count × mix measurement.
type ReadHeavyResult struct {
	ReadTxnFraction float64 `json:"read_txn_fraction"`
	BackendResult
}

// SweepReadHeavy runs the flat-ref backend sweep once per read-heavy mix
// (read-only transactions drawn with probability mix, declared via
// stm.WithReadOnly), printing a table to out (if non-nil).
func SweepReadHeavy(cfg BackendBenchConfig, mixes []float64, out io.Writer) ([]ReadHeavyResult, error) {
	var results []ReadHeavyResult
	for _, mix := range mixes {
		mcfg := cfg
		mcfg.ReadTxnFraction = mix
		if out != nil {
			fmt.Fprintf(out, "\n# read-heavy mix: %.0f%% read-only / %.0f%% update transactions\n",
				mix*100, (1-mix)*100)
		}
		rs, err := SweepBackends(mcfg, out)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			results = append(results, ReadHeavyResult{ReadTxnFraction: mix, BackendResult: r})
		}
	}
	return results, nil
}

// SweepBackends benchmarks every backend in the stm registry across
// cfg.Threads, printing a table to out (if non-nil) and returning the
// best-of-reps result per configuration.
func SweepBackends(cfg BackendBenchConfig, out io.Writer) ([]BackendResult, error) {
	var results []BackendResult
	if out != nil {
		fmt.Fprintf(out, "%-8s %8s %14s %10s %16s %14s\n",
			"backend", "threads", "ops/sec", "abort%", "validation p50", "lock-hold p50")
	}
	for _, bf := range stm.Backends() {
		if bf.Fault {
			// chaos-* wrappers abort and delay on purpose; their numbers
			// would pollute backend comparisons.
			continue
		}
		for _, t := range cfg.Threads {
			for i := 0; i < cfg.Warmups; i++ {
				if _, err := RunBackendBench(bf.Name, t, cfg); err != nil {
					return nil, err
				}
			}
			var best BackendResult
			for i := 0; i < cfg.Reps; i++ {
				res, err := RunBackendBench(bf.Name, t, cfg)
				if err != nil {
					return nil, err
				}
				if res.OpsPerSec > best.OpsPerSec {
					best = res
				}
			}
			results = append(results, best)
			if out != nil {
				fmt.Fprintf(out, "%-8s %8d %14.0f %9.2f%% %15dns %13dns\n",
					best.Backend, best.Threads, best.OpsPerSec, best.AbortRate*100,
					best.ValidationP50NS, best.LockHoldP50NS)
			}
		}
	}
	return results, nil
}
