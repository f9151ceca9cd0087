// Package bench reproduces the evaluation of the Proust paper (Section 7):
// the map-throughput benchmark of Figure 4, patterned after the setup of
// Bronson et al.'s predication paper.
//
// Each configuration performs a fixed number of randomly selected operations
// on a shared transactional map, split across t threads, with o operations
// per transaction. A fraction u of operations are writes (split evenly
// between put and remove); the rest are gets. Keys are drawn uniformly from
// a fixed range (1024 in the paper — predicate/lock-stripe garbage
// collection is out of scope, exactly as the paper notes).
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proust/internal/baseline"
	"proust/internal/conc"
	"proust/internal/core"
	"proust/internal/lock"
	"proust/internal/stm"
)

// OpKind is a workload operation type.
type OpKind int

const (
	// OpGet is a lookup.
	OpGet OpKind = iota + 1
	// OpPut is an insert-or-replace.
	OpPut
	// OpRemove is a delete.
	OpRemove
)

// Op is one map operation of the workload.
type Op struct {
	Kind OpKind
	Key  int
	Val  int
}

// Workload describes one benchmark configuration.
type Workload struct {
	Threads       int     // t
	OpsPerTxn     int     // o
	WriteFraction float64 // u
	KeyRange      int     // fixed 1024 in the paper
	TotalOps      int     // 1_000_000 in the paper
	Seed          uint64
	// Interleave yields the processor after every operation inside a
	// transaction. On a single-vCPU machine the Go scheduler otherwise
	// almost never preempts mid-transaction, so transactions never
	// overlap and no conflicts arise; yielding emulates the transaction
	// overlap a multi-core run produces (see EXPERIMENTS.md).
	Interleave bool
	// ReplaceOnly restricts writes to puts on the prepopulated (even)
	// keys, so no operation ever changes the map's size. Comparing a
	// ReplaceOnly run against a regular one isolates the cost of the
	// reified committedSize reference — the paper's Listing 2
	// optimization — which every presence-changing update must write.
	ReplaceOnly bool
	// TxnDeadline, when positive, runs every transaction through
	// AtomicallyCtx with this per-transaction deadline. Expired
	// transactions count as Result.Timeouts instead of failing the run —
	// the tail-latency robustness measurement. Zero keeps the nil-ctx
	// fast path (allocation-identical to pre-robustness builds).
	TxnDeadline time.Duration
}

// DefaultKeyRange matches the paper.
const DefaultKeyRange = 1024

// rng is a splitmix64-seeded xorshift generator, one per worker, so
// workloads are deterministic given (Seed, thread id).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &rng{state: z ^ (z >> 31) | 1}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

// NewWorkloadRNG returns a deterministic workload generator state for the
// given seed; used by the repository-level benchmarks.
func NewWorkloadRNG(seed uint64) *RNG { return newRNG(seed) }

// RNG is the exported name of the workload generator state.
type RNG = rng

// GenOp draws one operation per the workload mix.
func GenOp(r *RNG, w Workload) Op { return genOp(r, w) }

// genOp draws one operation per the workload mix (uniform keys).
func genOp(r *rng, w Workload) Op {
	key := int(r.next() % uint64(w.KeyRange))
	// Compare in fixed-point to avoid float per op.
	writeCut := uint64(w.WriteFraction * (1 << 32))
	if uint64(uint32(r.next())) < writeCut {
		if w.ReplaceOnly {
			return Op{Kind: OpPut, Key: key &^ 1, Val: int(r.next())}
		}
		if r.next()&1 == 0 {
			return Op{Kind: OpPut, Key: key, Val: int(r.next())}
		}
		return Op{Kind: OpRemove, Key: key}
	}
	if w.ReplaceOnly {
		key &^= 1
	}
	return Op{Kind: OpGet, Key: key}
}

// System is a benchmarkable transactional map plus its STM instance.
type System struct {
	Name string
	STM  *stm.STM
	Map  core.TxMap[int, int]
	// Locks is the abstract-lock stripe table for pessimistic systems (nil
	// otherwise); observability attaches a lock.Observer here.
	Locks *lock.Striped
	// PessimisticOnly mirrors the paper: the pessimistic series is only
	// reported for o=1 (longer transactions livelock against the STM's
	// contention management; Section 7).
	OnlyO1 bool
}

// Factory builds a fresh System per run.
type Factory struct {
	Name   string
	OnlyO1 bool
	New    func() System
}

// DefaultMemSize is the conflict-abstraction table size used by the bench
// systems (M; same order as the key range, as in lock striping).
const benchMem = 1024

// Factories returns the benchmark series of Figure 4:
// the traditional pure-STM map, transactional predication, and the
// Proustian maps across the design space (eager/optimistic, lazy/optimistic
// with snapshot shadow copies, lazy memoizing without and with log
// combining, and pessimistic eager — the boosting configuration).
// Each system runs on its historically-faithful STM backend (by registry
// name: "ccstm" for the mixed CCSTM-like systems, "tl2" for the lazy ones).
func Factories() []Factory { return FactoriesWithBackend("") }

// FactoriesWithBackend returns the Figure-4 series with every system's STM
// replaced by the named registry backend. The empty string keeps each
// system's default backend. Panics on an unknown backend name (callers such
// as proust-bench validate with stm.BackendByName first).
func FactoriesWithBackend(backend string) []Factory {
	return FactoriesWithOptions(backend)
}

// FactoriesWithOptions returns the Figure-4 series with an optional backend
// override plus extra stm.Options applied to every system's STM — the hook
// through which the robustness knobs (stm.WithChaos, stm.WithEscalation,
// stm.WithMaxAttempts) reach the benchmark systems. Options are applied
// after the backend selection, so WithChaos wraps whichever backend each
// system runs on.
func FactoriesWithOptions(backend string, opts ...stm.Option) []Factory {
	if backend != "" {
		if _, ok := stm.BackendByName(backend); !ok {
			panic(fmt.Sprintf("bench: unknown backend %q (valid backends: %s)",
				backend, strings.Join(stm.BackendNames(), ", ")))
		}
	}
	// newSTM builds the system's STM on its default backend, or on the
	// overridden one when the caller asked for a specific backend.
	newSTM := func(def string) *stm.STM {
		name := def
		if backend != "" {
			name = backend
		}
		all := make([]stm.Option, 0, len(opts)+1)
		all = append(all, stm.WithBackend(name))
		all = append(all, opts...)
		return stm.New(all...)
	}
	intHash := func(k int) uint64 { return conc.IntHasher(k) }
	return []Factory{
		{
			Name: "pure-stm",
			New: func() System {
				s := newSTM("ccstm")
				// 64 buckets over 1024 keys: roughly the false-conflict
				// granularity a ref-based HAMT/TMap exhibits on its
				// internal nodes.
				return System{Name: "pure-stm", STM: s,
					Map: baseline.NewPureSTMMap[int, int](s, conc.IntHasher, 64)}
			},
		},
		{
			Name: "predication",
			New: func() System {
				s := newSTM("ccstm")
				return System{Name: "predication", STM: s,
					Map: baseline.NewPredicationMap[int, int](s, conc.IntHasher)}
			},
		},
		{
			Name: "proust-eager-opt",
			New: func() System {
				// The paper benchmarks eager/optimistic on the mixed
				// CCSTM-like backend despite the opacity caveat (its
				// footnote 3); the workload makes no control-flow
				// decisions on map results.
				s := newSTM("ccstm")
				lap := core.NewOptimisticLAP(s, intHash, benchMem)
				return System{Name: "proust-eager-opt", STM: s,
					Map: core.NewMap[int, int](s, lap, conc.IntHasher)}
			},
		},
		{
			Name: "proust-lazy-snapshot",
			New: func() System {
				s := newSTM("tl2")
				lap := core.NewOptimisticLAP(s, intHash, benchMem)
				return System{Name: "proust-lazy-snapshot", STM: s,
					Map: core.NewLazySnapshotMap[int, int](s, lap, conc.IntHasher)}
			},
		},
		{
			Name: "proust-lazy-memo",
			New: func() System {
				s := newSTM("tl2")
				lap := core.NewOptimisticLAP(s, intHash, benchMem)
				return System{Name: "proust-lazy-memo", STM: s,
					Map: core.NewLazyMemoMap[int, int](s, lap, conc.IntHasher, false)}
			},
		},
		{
			Name: "proust-lazy-memo-combining",
			New: func() System {
				s := newSTM("tl2")
				lap := core.NewOptimisticLAP(s, intHash, benchMem)
				return System{Name: "proust-lazy-memo-combining", STM: s,
					Map: core.NewLazyMemoMap[int, int](s, lap, conc.IntHasher, true)}
			},
		},
		{
			Name:   "proust-pessimistic",
			OnlyO1: true,
			New: func() System {
				s := newSTM("ccstm")
				lap := core.NewPessimisticLAP(intHash, benchMem, core.DefaultLockTimeout)
				return System{Name: "proust-pessimistic", STM: s, OnlyO1: true,
					Locks: lap.Locks(),
					Map:   core.NewMap[int, int](s, lap, conc.IntHasher)}
			},
		},
	}
}

// FactoryByName returns the named factory.
func FactoryByName(name string) (Factory, bool) {
	for _, f := range Factories() {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// Result is one measured configuration.
type Result struct {
	System        string
	Threads       int
	OpsPerTxn     int
	WriteFraction float64
	TotalOps      int
	Duration      time.Duration
	Commits       uint64
	Aborts        uint64
	// Timeouts counts transactions abandoned by Workload.TxnDeadline
	// (always zero when no deadline is configured).
	Timeouts uint64
	// Escalations counts transactions that escalated to serial mode
	// (non-zero only when the system's STM runs stm.WithEscalation).
	Escalations uint64
}

// Millis returns the duration in milliseconds (Figure 4's y-axis).
func (r Result) Millis() float64 {
	return float64(r.Duration) / float64(time.Millisecond)
}

// OpsPerSec returns throughput.
func (r Result) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.TotalOps) / r.Duration.Seconds()
}

// AbortRate returns aborts per started transaction attempt.
func (r Result) AbortRate() float64 {
	total := r.Commits + r.Aborts
	if total == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(total)
}

// Prepopulate inserts every even key so the map starts at 50% occupancy
// (Bronson et al.'s setup). Keys are inserted in uncontended batches rather
// than one transaction per key; the initial state is identical and setup
// stops dominating the allocation profile of short measured runs.
func Prepopulate(sys System, keyRange int) error {
	const batch = 64
	for lo := 0; lo < keyRange; lo += batch {
		hi := lo + batch
		if hi > keyRange {
			hi = keyRange
		}
		if err := sys.STM.Atomically(func(tx *stm.Txn) error {
			for k := lo; k < hi; k += 2 {
				sys.Map.Put(tx, k, k)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("prepopulate keys [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}

// Run executes the workload against a fresh system from the factory and
// returns the timing. Each of the w.Threads workers executes its share of
// transactions of w.OpsPerTxn operations each.
func Run(f Factory, w Workload) (Result, error) {
	sys, err := Prepare(f, w)
	if err != nil {
		return Result{}, err
	}
	return RunPrepared(sys, w)
}

// Prepare builds a fresh system and brings it to the workload's initial
// state (50% occupancy). Benchmarks that measure the steady-state hot path
// call it outside the timed region; Result.Duration has never included this
// phase (Run starts its clock after prepopulation), so splitting it out only
// aligns the benchmark framework's timer with what Run already measures.
func Prepare(f Factory, w Workload) (System, error) {
	sys := f.New()
	if err := Prepopulate(sys, w.KeyRange); err != nil {
		return System{}, err
	}
	sys.STM.ResetStats()
	return sys, nil
}

// RunPrepared executes the workload's measured phase against an already
// prepared system. See Run.
func RunPrepared(sys System, w Workload) (Result, error) {
	txnsTotal := w.TotalOps / w.OpsPerTxn
	if txnsTotal == 0 {
		txnsTotal = 1
	}
	perThread := txnsTotal / w.Threads
	if perThread == 0 {
		perThread = 1
	}

	var (
		wg       sync.WaitGroup
		runErrMu sync.Mutex
		runErr   error
		timeouts atomic.Uint64
	)
	start := time.Now()
	for t := 0; t < w.Threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := newRNG(w.Seed + uint64(id)*0x1000193)
			ops := make([]Op, w.OpsPerTxn)
			// One closure per worker, not per transaction: the body reads
			// the ops buffer regenerated in place each iteration.
			body := func(tx *stm.Txn) error {
				for _, op := range ops {
					switch op.Kind {
					case OpGet:
						sys.Map.Get(tx, op.Key)
					case OpPut:
						sys.Map.Put(tx, op.Key, op.Val)
					case OpRemove:
						sys.Map.Remove(tx, op.Key)
					}
					if w.Interleave {
						runtime.Gosched()
					}
				}
				return nil
			}
			for i := 0; i < perThread; i++ {
				for j := range ops {
					ops[j] = genOp(r, w)
				}
				var err error
				if w.TxnDeadline > 0 {
					ctx, cancel := context.WithTimeout(context.Background(), w.TxnDeadline)
					err = sys.STM.AtomicallyCtx(ctx, body)
					cancel()
					if errors.Is(err, stm.ErrDeadline) {
						// An expired transaction is a measured outcome of the
						// tail-latency run, not a benchmark failure.
						timeouts.Add(1)
						err = nil
					}
				} else {
					err = sys.STM.Atomically(body)
				}
				if err != nil {
					runErrMu.Lock()
					if runErr == nil {
						runErr = err
					}
					runErrMu.Unlock()
					return
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return Result{}, runErr
	}
	st := sys.STM.Stats()
	return Result{
		System:        sys.Name,
		Threads:       w.Threads,
		OpsPerTxn:     w.OpsPerTxn,
		WriteFraction: w.WriteFraction,
		TotalOps:      perThread * w.Threads * w.OpsPerTxn,
		Duration:      elapsed,
		Commits:       st.Commits,
		Aborts:        st.Aborts,
		Timeouts:      timeouts.Load(),
		Escalations:   st.Escalations,
	}, nil
}

// RunRepeated performs warm-up runs followed by timed repetitions (the
// paper's 10+10 protocol, scaled by the caller) and returns the mean result
// plus the per-repetition durations.
func RunRepeated(f Factory, w Workload, warmups, reps int) (Result, []time.Duration, error) {
	for i := 0; i < warmups; i++ {
		if _, err := Run(f, w); err != nil {
			return Result{}, nil, err
		}
		runtime.GC()
	}
	var (
		mean  Result
		durs  []time.Duration
		total time.Duration
	)
	for i := 0; i < reps; i++ {
		res, err := Run(f, w)
		if err != nil {
			return Result{}, nil, err
		}
		durs = append(durs, res.Duration)
		total += res.Duration
		mean = res
		runtime.GC()
	}
	if reps > 0 {
		mean.Duration = total / time.Duration(reps)
	}
	return mean, durs, nil
}

// SweepConfig parameterizes the Figure 4 grid.
type SweepConfig struct {
	Threads    []int
	OpsPerTxn  []int
	WriteFrac  []float64
	TotalOps   int
	KeyRange   int
	Warmups    int
	Reps       int
	Interleave bool
	Systems    []string // empty = all
	Backend    string   // STM backend override by registry name; empty = per-system default
	// Chaos, when non-nil, wraps every system's backend in the fault-injecting
	// chaos layer with this configuration — the soak-under-load mode.
	Chaos *stm.ChaosConfig
	// Escalate, when positive, enables starvation escalation on every
	// system's STM with this conflict-abort threshold.
	Escalate int
	// TxnDeadline, when positive, bounds each transaction via AtomicallyCtx;
	// expiries are reported as Result.Timeouts (see Workload.TxnDeadline).
	TxnDeadline time.Duration
	// Obs instruments every system built during the sweep (nil = zero-cost
	// uninstrumented run).
	Obs *Observability
	Out io.Writer
}

// DefaultSweep mirrors the paper's grid (scaled op counts are the caller's
// choice; the paper used 10^6 ops, 10 warm-ups and 10 timed reps).
func DefaultSweep(out io.Writer) SweepConfig {
	return SweepConfig{
		Threads:   []int{1, 2, 4, 8, 16, 32},
		OpsPerTxn: []int{1, 2, 16, 256},
		WriteFrac: []float64{0, 0.25, 0.5, 0.75, 1},
		TotalOps:  1000000,
		KeyRange:  DefaultKeyRange,
		Warmups:   2,
		Reps:      3,
		Out:       out,
	}
}

// Sweep runs the Figure 4 grid and prints one table per (u, o) chart with a
// column per system: the time in milliseconds to process TotalOps
// operations (the paper's y-axis), plus abort rates. It returns all results.
func Sweep(cfg SweepConfig) ([]Result, error) {
	if cfg.Backend != "" {
		if _, ok := stm.BackendByName(cfg.Backend); !ok {
			return nil, fmt.Errorf("bench: unknown backend %q (valid backends: %s)",
				cfg.Backend, strings.Join(stm.BackendNames(), ", "))
		}
	}
	var stmOpts []stm.Option
	if cfg.Chaos != nil {
		stmOpts = append(stmOpts, stm.WithChaos(*cfg.Chaos))
	}
	if cfg.Escalate > 0 {
		stmOpts = append(stmOpts, stm.WithEscalation(cfg.Escalate))
	}
	factories := FactoriesWithOptions(cfg.Backend, stmOpts...)
	if cfg.Obs != nil {
		for i := range factories {
			factories[i] = cfg.Obs.Instrumented(factories[i])
		}
	}
	if len(cfg.Systems) > 0 {
		var sel []Factory
		for _, name := range cfg.Systems {
			found := false
			for _, f := range factories {
				if f.Name == name {
					sel = append(sel, f)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("bench: unknown system %q", name)
			}
		}
		factories = sel
	}
	var all []Result
	for _, u := range cfg.WriteFrac {
		for _, o := range cfg.OpsPerTxn {
			fmt.Fprintf(cfg.Out, "\n# Figure 4 chart: u=%.2f o=%d — time (ms) for %d ops, [abort rate]\n",
				u, o, cfg.TotalOps)
			var active []Factory
			for _, f := range factories {
				if f.OnlyO1 && o != 1 {
					continue
				}
				active = append(active, f)
			}
			fmt.Fprintf(cfg.Out, "%8s", "threads")
			for _, f := range active {
				fmt.Fprintf(cfg.Out, " %26s", f.Name)
			}
			fmt.Fprintln(cfg.Out)
			for _, t := range cfg.Threads {
				fmt.Fprintf(cfg.Out, "%8d", t)
				for _, f := range active {
					w := Workload{
						Threads:       t,
						OpsPerTxn:     o,
						WriteFraction: u,
						KeyRange:      cfg.KeyRange,
						TotalOps:      cfg.TotalOps,
						Seed:          42,
						Interleave:    cfg.Interleave,
						TxnDeadline:   cfg.TxnDeadline,
					}
					res, _, err := RunRepeated(f, w, cfg.Warmups, cfg.Reps)
					if err != nil {
						return all, fmt.Errorf("%s t=%d o=%d u=%.2f: %w", f.Name, t, o, u, err)
					}
					all = append(all, res)
					fmt.Fprintf(cfg.Out, " %17.1f [%5.1f%%]", res.Millis(), res.AbortRate()*100)
				}
				fmt.Fprintln(cfg.Out)
			}
		}
	}
	return all, nil
}

// WriteCSV emits results in CSV form.
func WriteCSV(out io.Writer, results []Result) {
	fmt.Fprintln(out, "system,threads,ops_per_txn,write_fraction,total_ops,millis,ops_per_sec,commits,aborts,abort_rate,timeouts,escalations")
	for _, r := range results {
		fmt.Fprintf(out, "%s,%d,%d,%.2f,%d,%.3f,%.0f,%d,%d,%.4f,%d,%d\n",
			r.System, r.Threads, r.OpsPerTxn, r.WriteFraction, r.TotalOps,
			r.Millis(), r.OpsPerSec(), r.Commits, r.Aborts, r.AbortRate(),
			r.Timeouts, r.Escalations)
	}
}

// Trend summarizes the paper's Section 7 claims over a result set. Each
// check compares aggregate throughput shapes; see EXPERIMENTS.md.
type Trend struct {
	Name    string
	Holds   bool
	Details string
}

// AnalyzeTrends evaluates the paper's qualitative claims against results:
// (a) Proustian maps beat the pure-STM map under write contention;
// (b) predication outperforms the Proustian maps;
// (c) growing o hurts Proust relative to predication;
// (d) log combining improves on plain memoized replay at large o.
func AnalyzeTrends(results []Result) []Trend {
	// Index mean millis by (system, o) aggregated over u>0 and threads>1.
	type key struct {
		system string
		o      int
	}
	sum := make(map[key]float64)
	n := make(map[key]int)
	for _, r := range results {
		if r.WriteFraction == 0 || r.Threads < 2 {
			continue
		}
		k := key{system: r.System, o: r.OpsPerTxn}
		sum[k] += r.Millis()
		n[k]++
	}
	mean := func(system string, o int) (float64, bool) {
		k := key{system: system, o: o}
		if n[k] == 0 {
			return 0, false
		}
		return sum[k] / float64(n[k]), true
	}
	meanAll := func(system string) (float64, bool) {
		tot, cnt := 0.0, 0
		for k, v := range sum {
			if k.system == system {
				tot += v
				cnt += n[k]
			}
		}
		if cnt == 0 {
			return 0, false
		}
		return tot / float64(cnt), true
	}

	var trends []Trend
	proust := []string{"proust-eager-opt", "proust-lazy-snapshot", "proust-lazy-memo"}

	if pure, ok := meanAll("pure-stm"); ok {
		best := false
		details := fmt.Sprintf("pure-stm mean %.1fms vs", pure)
		for _, p := range proust {
			if v, ok2 := meanAll(p); ok2 {
				details += fmt.Sprintf(" %s %.1fms", p, v)
				if v < pure {
					best = true
				}
			}
		}
		trends = append(trends, Trend{
			Name:    "(a) Proust scales better than the pure-STM map under contention",
			Holds:   best,
			Details: details,
		})
	}

	if pred, ok := meanAll("predication"); ok {
		allSlower := true
		details := fmt.Sprintf("predication mean %.1fms vs", pred)
		for _, p := range proust {
			if v, ok2 := meanAll(p); ok2 {
				details += fmt.Sprintf(" %s %.1fms", p, v)
				if v < pred {
					allSlower = false
				}
			}
		}
		trends = append(trends, Trend{
			Name:    "(b) predication outperforms the Proustian maps",
			Holds:   allSlower,
			Details: details,
		})
	}

	// (c): ratio proust/predication grows with o.
	var os []int
	seen := map[int]bool{}
	for k := range sum {
		if !seen[k.o] {
			seen[k.o] = true
			os = append(os, k.o)
		}
	}
	sort.Ints(os)
	if len(os) >= 2 {
		firstO, lastO := os[0], os[len(os)-1]
		ratio := func(o int) (float64, bool) {
			p, ok1 := mean("proust-lazy-memo", o)
			q, ok2 := mean("predication", o)
			if !ok1 || !ok2 || q == 0 {
				return 0, false
			}
			return p / q, true
		}
		r1, ok1 := ratio(firstO)
		r2, ok2 := ratio(lastO)
		if ok1 && ok2 {
			trends = append(trends, Trend{
				Name:    "(c) increasing o hurts Proust relative to predication",
				Holds:   r2 > r1,
				Details: fmt.Sprintf("proust-lazy-memo/predication ratio: o=%d → %.2f, o=%d → %.2f", firstO, r1, lastO, r2),
			})
		}
	}

	// (d): log combining beats plain memoized replay at the largest o.
	if len(os) > 0 {
		lastO := os[len(os)-1]
		plain, ok1 := mean("proust-lazy-memo", lastO)
		comb, ok2 := mean("proust-lazy-memo-combining", lastO)
		if ok1 && ok2 {
			trends = append(trends, Trend{
				Name:    "(d) log combining improves memoized replay at large o",
				Holds:   comb < plain,
				Details: fmt.Sprintf("o=%d: plain %.1fms vs combining %.1fms", lastO, plain, comb),
			})
		}
	}
	return trends
}
