package bench

// The contended-scale experiment of the sharded-timebase work: a skewed-key,
// partition-local scan workload running against a continuously churning hot
// partition, measured twice per configuration — once on the classic
// single-clock timebase (the control arm: stm.WithShards(1)) and once on the
// sharded timebase.
//
// One thread is the *feed writer*: it appends monotonically through the refs
// of partition 0 (a moving cursor over a ring), the way a log, queue or
// ticker partition churns in a real system. The remaining threads are
// *readers*: each picks a Zipf-distributed cold partition, scans all of its
// refs (a long read set), sprinkles a few read-modify-writes, and finishes by
// reading the most recently committed feed refs — fresh data just behind the
// writer's cursor.
//
// Those tail reads are where the timebases diverge. A freshly written feed
// ref carries a version newer than the reader's read version, so every tail
// read forces a timestamp extension. Under the single clock the extension
// must revalidate the *entire* read set — O(partition) work, repeated for
// every tail read, caused by commits the reader never conflicts with. The
// sharded timebase revalidates only the shards whose clocks moved, and the
// per-shard read-log chains make that exact: each extension walks the feed
// shard's few entries and skips the thousands of quiet-partition entries
// outright. The win is algorithmic — Θ(tail·scan) versus Θ(tail) validation
// work per transaction — so it shows up on any core count. Reading
// behind-the-cursor refs keeps the pattern abort-neutral (those refs are not
// rewritten until the cursor wraps), so both arms see the same conflicts and
// the ops/s delta isolates pure validation cost.

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proust/internal/stm"
)

// ShardBenchConfig parameterizes the contended-scale sweep.
type ShardBenchConfig struct {
	// Threads is the thread axis; at t ≥ 2 one thread is the feed writer and
	// t−1 are readers, at t = 1 a single reader runs alone (no churn).
	Threads []int `json:"threads"`
	// ZipfS are the partition-skew exponents for the readers' partition
	// choice (must each be > 1).
	ZipfS []float64 `json:"zipf_s"`
	// Partitions is the number of key partitions; partition 0 is the feed.
	Partitions int `json:"partitions"`
	// PartitionRefs is the refs per partition — the scan (and read-set)
	// length of every reader transaction.
	PartitionRefs int `json:"partition_refs"`
	// ScanWriteEvery makes every this-many-th scanned ref a read-modify-write
	// (0 disables scan writes).
	ScanWriteEvery int `json:"scan_write_every"`
	// TailReads is the number of just-committed feed refs each reader
	// transaction reads after its scan. Each one observes a version ahead of
	// the reader's snapshot and forces a timestamp extension.
	TailReads int `json:"tail_reads"`
	// FeedWrites is the number of refs the feed writer advances per feed
	// transaction.
	FeedWrites int `json:"feed_writes"`
	// TotalOps is the number of refs scanned by readers per measured run.
	TotalOps int `json:"total_ops"`
	// InterleaveEvery yields the processor after every this-many scanned refs
	// (0 disables). Like Workload.Interleave, it makes transactions overlap
	// on few-core boxes; tail reads and feed writes yield once each.
	InterleaveEvery int    `json:"interleave_every"`
	Seed            uint64 `json:"seed"`
	Warmups         int    `json:"warmups"`
	Reps            int    `json:"reps"`
	// Backends to measure.
	Backends []string `json:"backends"`
	// Shards is the sharded arm's shard count (0 = automatic). The control
	// arm always runs WithShards(1).
	Shards int `json:"shards"`
	// Instrument, when non-nil, is called with each freshly built STM before
	// any transaction runs — the observability hook (tracer + collector) for
	// instrumented contended-scale runs. Not part of the recorded config.
	Instrument func(*stm.STM) `json:"-"`
}

// DefaultShardBench is the recorded contended-scale configuration: threads up
// to 2×NumCPU (always including 8), both skew exponents, 64 partitions of
// 2048 refs.
func DefaultShardBench() ShardBenchConfig {
	maxT := 2 * runtime.NumCPU()
	threads := []int{1, 2, 4, 8}
	for t := 16; t <= maxT; t *= 2 {
		threads = append(threads, t)
	}
	return ShardBenchConfig{
		Threads:         threads,
		ZipfS:           []float64{1.01, 1.2},
		Partitions:      64,
		PartitionRefs:   2048,
		ScanWriteEvery:  256,
		TailReads:       64,
		FeedWrites:      4,
		TotalOps:        4000000,
		InterleaveEvery: 64,
		Seed:            42,
		Warmups:         1,
		Reps:            3,
		Backends:        []string{"tl2", "ccstm", "eager"},
	}
}

// ShardArm names one measured timebase configuration.
type ShardArm string

const (
	// ArmControl is the single-clock baseline: WithShards(1).
	ArmControl ShardArm = "control"
	// ArmSharded is the partitioned timebase.
	ArmSharded ShardArm = "sharded"
)

// ShardResult is one backend × arm × threads × skew measurement.
type ShardResult struct {
	Backend           string   `json:"backend"`
	Arm               ShardArm `json:"arm"`
	Threads           int      `json:"threads"`
	ZipfS             float64  `json:"zipf_s"`
	Shards            int      `json:"shards"`
	OpsPerSec         float64  `json:"ops_per_sec"`
	AbortRate         float64  `json:"abort_rate"`
	Commits           uint64   `json:"commits"`
	Aborts            uint64   `json:"aborts"`
	CrossShardCommits uint64   `json:"cross_shard_commits"`
	ClockSkew         uint64   `json:"clock_skew"`
}

// shardPartitions allocates Partitions×PartitionRefs refs contiguously and
// splits them into partitions. The sharded arm sizes the instance's shard
// blocks to the partition size (WithShardBlockBits in runShardArm), so a
// contiguous partition is exactly one id block and lives on a single timebase
// shard; a few refs are discarded up front to align the first partition to a
// block boundary (detected by watching Shard() roll over). Both arms thus
// scan identical, allocation-contiguous memory.
func shardPartitions(s *stm.STM, cfg ShardBenchConfig) [][]*stm.Ref[int] {
	flat := make([]*stm.Ref[int], cfg.Partitions*cfg.PartitionRefs)
	start := 0
	if s.Shards() > 1 {
		// Align to the next block boundary: within a block the shard is
		// constant, so allocate until it rolls over — that ref is the first
		// of the new block and becomes the first partition ref.
		first := stm.NewRef(s, 0)
		probe := first
		for probe.Shard() == first.Shard() {
			probe = stm.NewRef(s, 0)
		}
		flat[0] = probe
		start = 1
	}
	for i := start; i < len(flat); i++ {
		flat[i] = stm.NewRef(s, 0)
	}
	parts := make([][]*stm.Ref[int], cfg.Partitions)
	for p := range parts {
		parts[p] = flat[p*cfg.PartitionRefs : (p+1)*cfg.PartitionRefs]
	}
	return parts
}

// runShardArm measures one (backend, arm, threads, skew) cell once.
func runShardArm(backendName string, arm ShardArm, threads int, zipfS float64, cfg ShardBenchConfig) (ShardResult, error) {
	if _, ok := stm.BackendByName(backendName); !ok {
		return ShardResult{}, fmt.Errorf("bench: unknown backend %q (valid: %v)", backendName, stm.BackendNames())
	}
	opts := []stm.Option{stm.WithBackend(backendName)}
	if arm == ArmControl {
		opts = append(opts, stm.WithShards(1))
	} else {
		// Size the shard blocks to the partition size, so each contiguous
		// partition lives on one timebase shard (see shardPartitions).
		opts = append(opts, stm.WithShards(cfg.Shards),
			stm.WithShardBlockBits(bits.Len(uint(cfg.PartitionRefs-1))))
	}
	s := stm.New(opts...)
	if cfg.Instrument != nil {
		cfg.Instrument(s)
	}
	parts := shardPartitions(s, cfg)
	feed := parts[0]
	ring := uint64(len(feed))

	readers := threads - 1
	if readers < 1 {
		readers = 1
	}
	perReader := cfg.TotalOps / cfg.PartitionRefs / readers
	if perReader == 0 {
		perReader = 1
	}
	s.ResetStats()

	// cursor counts feed refs committed so far; readers read just behind it.
	var cursor atomic.Uint64
	var stopFeed atomic.Bool
	feedDone := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()

	if threads >= 2 {
		go func() {
			defer close(feedDone)
			for !stopFeed.Load() {
				c := cursor.Load()
				_ = s.Atomically(func(tx *stm.Txn) error {
					for w := 0; w < cfg.FeedWrites; w++ {
						// Blind append-style writes: no read set, so the feed
						// writer never aborts and every commit bumps the feed
						// shard's clock (the global clock, in the control arm).
						feed[(c+uint64(w))%ring].Set(tx, int(c)+w)
						runtime.Gosched()
					}
					return nil
				})
				cursor.Store(c + uint64(cfg.FeedWrites))
				runtime.Gosched()
			}
		}()
	} else {
		close(feedDone)
	}

	for t := 0; t < readers; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			zk := NewZipfKeys(cfg.Seed+uint64(id)*0x1000193+0x5bf0, zipfS, cfg.Partitions-1)
			for i := 0; i < perReader; i++ {
				part := parts[1+zk.Next()]
				_ = s.Atomically(func(tx *stm.Txn) error {
					for j, ref := range part {
						if cfg.ScanWriteEvery > 0 && (j+1)%cfg.ScanWriteEvery == 0 {
							ref.Set(tx, ref.Get(tx)+1)
						} else {
							_ = ref.Get(tx)
						}
						if cfg.InterleaveEvery > 0 && (j+1)%cfg.InterleaveEvery == 0 {
							runtime.Gosched()
						}
					}
					// Tail: read the freshest committed feed entry, re-sampling
					// the cursor between reads so churn lands in between. Each
					// read of a just-published ref forces a timestamp
					// extension — the validation work under measurement.
					for j := 0; j < cfg.TailReads; j++ {
						c := cursor.Load()
						_ = feed[(c+ring-1)%ring].Get(tx)
						runtime.Gosched()
					}
					return nil
				})
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stopFeed.Store(true)
	<-feedDone

	st := s.Stats()
	rate := 0.0
	if st.Commits+st.Aborts > 0 {
		rate = float64(st.Aborts) / float64(st.Commits+st.Aborts)
	}
	return ShardResult{
		Backend:           backendName,
		Arm:               arm,
		Threads:           threads,
		ZipfS:             zipfS,
		Shards:            s.Shards(),
		OpsPerSec:         float64(perReader*readers*cfg.PartitionRefs) / elapsed.Seconds(),
		AbortRate:         rate,
		Commits:           st.Commits,
		Aborts:            st.Aborts,
		CrossShardCommits: st.CrossShardCommits,
		ClockSkew:         s.ShardClockSkew(),
	}, nil
}

// RunContendedScale sweeps the contended-scale grid: for every backend ×
// skew × thread count, the control (single-clock) and sharded arms run
// back-to-back, warmed up and best-of-reps like the backend sweep. A table
// goes to out when non-nil.
func RunContendedScale(cfg ShardBenchConfig, out io.Writer) ([]ShardResult, error) {
	if out != nil {
		fmt.Fprintf(out, "%-8s %-8s %8s %7s %8s %14s %10s %8s\n",
			"backend", "arm", "threads", "zipf", "shards", "ops/sec", "abort%", "skew")
	}
	var results []ShardResult
	for _, backend := range cfg.Backends {
		for _, zs := range cfg.ZipfS {
			for _, t := range cfg.Threads {
				for _, arm := range []ShardArm{ArmControl, ArmSharded} {
					for i := 0; i < cfg.Warmups; i++ {
						if _, err := runShardArm(backend, arm, t, zs, cfg); err != nil {
							return nil, err
						}
					}
					var best ShardResult
					for i := 0; i < cfg.Reps; i++ {
						res, err := runShardArm(backend, arm, t, zs, cfg)
						if err != nil {
							return nil, err
						}
						if res.OpsPerSec > best.OpsPerSec {
							best = res
						}
					}
					results = append(results, best)
					if out != nil {
						fmt.Fprintf(out, "%-8s %-8s %8d %7.2f %8d %14.0f %9.2f%% %8d\n",
							best.Backend, best.Arm, best.Threads, best.ZipfS, best.Shards,
							best.OpsPerSec, best.AbortRate*100, best.ClockSkew)
					}
				}
			}
		}
	}
	return results, nil
}

// ShardSpeedup summarizes sharded-vs-control throughput per backend at the
// given thread count (averaged over skews); used by the acceptance check and
// the JSON export.
type ShardSpeedup struct {
	Backend string  `json:"backend"`
	Threads int     `json:"threads"`
	Speedup float64 `json:"speedup"` // sharded ops/sec ÷ control ops/sec
}

// Speedups computes per-backend sharded/control throughput ratios at each
// thread count, averaging across skew exponents.
func Speedups(results []ShardResult) []ShardSpeedup {
	type key struct {
		backend string
		threads int
		arm     ShardArm
	}
	sum := make(map[key]float64)
	n := make(map[key]int)
	for _, r := range results {
		k := key{r.Backend, r.Threads, r.Arm}
		sum[k] += r.OpsPerSec
		n[k]++
	}
	var out []ShardSpeedup
	seen := make(map[key]bool)
	for _, r := range results {
		k := key{r.Backend, r.Threads, ArmControl}
		if seen[k] {
			continue
		}
		seen[k] = true
		ctrl := sum[k] / float64(n[k])
		sk := key{r.Backend, r.Threads, ArmSharded}
		if n[sk] == 0 || ctrl == 0 {
			continue
		}
		out = append(out, ShardSpeedup{
			Backend: r.Backend,
			Threads: r.Threads,
			Speedup: (sum[sk] / float64(n[sk])) / ctrl,
		})
	}
	return out
}
