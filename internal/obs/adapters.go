package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proust/internal/core"
	"proust/internal/lock"
	"proust/internal/stm"
)

// LockObserver bridges lock.Observer onto a Registry: acquisition counts by
// mode and outcome, wait-time histograms by mode, and an internal per-stripe
// contention table (kept out of the registry to avoid thousand-label
// cardinality; query it with HotStripes).
type LockObserver struct {
	acquires *CounterVec   // labels: mode, outcome
	waits    *HistogramVec // labels: mode

	contended []atomic.Uint64 // per-stripe contended+timeout+upgrade counts
}

var _ lock.Observer = (*LockObserver)(nil)

// NewLockObserver registers the abstract-lock families on r and returns an
// observer for a stripe table of the given size. r may be nil (metrics
// become no-ops; the stripe table still counts).
func NewLockObserver(r *Registry, stripes int) *LockObserver {
	if stripes < 1 {
		stripes = 1
	}
	return &LockObserver{
		acquires: r.Counter("proust_lock_acquires_total",
			"Abstract-lock acquisitions by mode and outcome.", "mode", "outcome"),
		waits: r.Histogram("proust_lock_wait_nanoseconds",
			"Abstract-lock acquisition wait time.", UnitNanoseconds, "mode"),
		contended: make([]atomic.Uint64, stripes),
	}
}

// ObserveAcquire implements lock.Observer.
func (o *LockObserver) ObserveAcquire(stripe int, m lock.Mode, wait time.Duration, outcome lock.AcquireOutcome) {
	o.acquires.With(m.String(), outcome.String()).Inc()
	o.waits.With(m.String()).Observe(uint64(wait))
	if outcome != lock.Uncontended && stripe >= 0 && stripe < len(o.contended) {
		o.contended[stripe].Add(1)
	}
}

// StripeContention is one entry of the hot-stripe report.
type StripeContention struct {
	Stripe int    `json:"stripe"`
	Count  uint64 `json:"count"`
}

// HotStripes returns the n stripes with the most contended (blocked, timed
// out, or upgrade-conflicted) acquisitions, most contended first. Stripes
// with zero contention are omitted.
func (o *LockObserver) HotStripes(n int) []StripeContention {
	var out []StripeContention
	for i := range o.contended {
		if c := o.contended[i].Load(); c > 0 {
			out = append(out, StripeContention{Stripe: i, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Stripe < out[j].Stripe
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ShardContention is one entry of the per-shard contention report.
type ShardContention struct {
	Shard int    `json:"shard"`
	Count uint64 `json:"count"`
}

// HotShards aggregates the per-stripe contention table by the table's stripe
// shards (lock.Striped.ShardOf) and returns the n most contended shards,
// most contended first; zero-contention shards are omitted. Because the LAP
// stripes are sharded to match the STM's timebase shards, this report reads
// directly against proust_stm_shard_clock_skew: a hot lock shard and a
// fast-moving commit clock point at the same key partition.
func (o *LockObserver) HotShards(n int, table *lock.Striped) []ShardContention {
	counts := make([]uint64, table.ShardCount())
	for i := range o.contended {
		if c := o.contended[i].Load(); c > 0 && i < table.Len() {
			counts[table.ShardOf(i)] += c
		}
	}
	var out []ShardContention
	for sh, c := range counts {
		if c > 0 {
			out = append(out, ShardContention{Shard: sh, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Shard < out[j].Shard
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// CoreSink bridges core.Sink onto a Registry: per-structure, per-operation
// commit/abort counters and lazy-replay depth histograms.
type CoreSink struct {
	ops    *CounterVec   // labels: structure, op, outcome
	depths *HistogramVec // labels: structure
}

var _ core.Sink = (*CoreSink)(nil)

// NewCoreSink registers the ADT-operation families on r.
func NewCoreSink(r *Registry) *CoreSink {
	return &CoreSink{
		ops: r.Counter("proust_adt_ops_total",
			"ADT operations by structure, operation and transaction outcome.",
			"structure", "op", "outcome"),
		depths: r.Histogram("proust_adt_replay_depth",
			"Lazy-log replay depth (operations replayed per committing transaction).",
			UnitCount, "structure"),
	}
}

// OpOutcome implements core.Sink.
func (s *CoreSink) OpOutcome(structure, op string, committed bool, n uint64) {
	outcome := "committed"
	if !committed {
		outcome = "aborted"
	}
	s.ops.With(structure, op, outcome).Add(n)
}

// ReplayDepth implements core.Sink.
func (s *CoreSink) ReplayDepth(structure string, depth int) {
	s.depths.With(structure).Observe(uint64(depth))
}

// STMCollector mirrors STM instances' cumulative Stats into a Registry on
// every gather (scrape-time pull, zero extra hot-path cost): throughput
// counters, the per-backend abort-cause breakdown, and quantile gauges over
// the sampled duration histograms (sample factor stm.HistogramSampleEvery).
// Attach tracks the latest instance per backend name, so harnesses that
// rebuild their STM per run (like the bench factories) stay scrapeable. Use
// one collector per registry.
type STMCollector struct {
	mu   sync.Mutex
	stms map[string]*stm.STM

	starts, commits, aborts, samples *CounterVec
	escalations, serialCommits       *CounterVec
	abandoned                        *CounterVec
	crossShard                       *CounterVec
	shardSkew, epoch                 *GaugeVec
	quant                            *GaugeVec
	observations                     *CounterVec

	// Per-shard heat families (labels: backend, shard).
	shardClock      *CounterVec
	epochExtensions *CounterVec

	// Multi-version (mvcc) families; only populated for attached instances
	// whose backend exposes MVCCTelemetry.
	mvccSnapshotReads *CounterVec
	mvccVersionsLive  *GaugeVec
	mvccWatermarkLag  *GaugeVec
}

// NewSTMCollector registers the per-backend STM families on r and hooks the
// collector into r's gather cycle. r may be nil (everything no-ops).
func NewSTMCollector(r *Registry) *STMCollector {
	c := &STMCollector{
		stms: make(map[string]*stm.STM),
		starts: r.Counter("proust_stm_starts_total",
			"Transaction attempts started.", "backend"),
		commits: r.Counter("proust_stm_commits_total",
			"Transactions committed.", "backend"),
		aborts: r.Counter("proust_stm_aborts_total",
			"Transaction attempts aborted, by cause.", "backend", "cause"),
		quant: r.Gauge("proust_stm_duration_quantile_nanoseconds",
			"Quantile estimates over the sampled STM duration histograms "+
				"(1-in-N sampled; see proust_stm_duration_samples_total).",
			"backend", "hist", "q"),
		samples: r.Counter("proust_stm_duration_samples_total",
			"Sampled observations underlying the duration quantiles "+
				"(multiply by sample_every for population estimates).",
			"backend", "hist", "sample_every"),
		escalations: r.Counter("proust_stm_escalations_total",
			"Transactions escalated to serial (irrevocable) mode after the "+
				"configured conflict-abort threshold.", "backend"),
		serialCommits: r.Counter("proust_stm_serial_commits_total",
			"Commits performed in escalated serial mode.", "backend"),
		abandoned: r.Counter("proust_stm_abandoned_total",
			"Transactions abandoned without committing, by reason "+
				"(max_attempts, canceled, deadline, closed).", "backend", "reason"),
		crossShard: r.Counter("proust_stm_cross_shard_commits_total",
			"Commits whose write set spanned timebase shards (each bumps the "+
				"global epoch fence).", "backend"),
		shardSkew: r.Gauge("proust_stm_shard_clock_skew",
			"Spread (max minus min) of the per-shard commit clocks — how "+
				"unevenly commit traffic lands across the sharded timebase.", "backend"),
		epoch: r.Gauge("proust_stm_epoch",
			"Global epoch-fence value (cross-shard commits since start).", "backend"),
		observations: r.Counter("proust_stm_duration_observations_total",
			"Estimated full-population observation counts behind the duration "+
				"quantiles: the sampled counts scaled back up by sample_every.",
			"backend", "hist"),
		shardClock: r.Counter("proust_stm_shard_clock",
			"Per-shard commit clock value; scrape deltas give each shard's "+
				"clock advance rate.", "backend", "shard"),
		epochExtensions: r.Counter("proust_stm_epoch_extensions_total",
			"Read-set extensions forced by the cross-shard epoch fence during "+
				"shard-clock capture.", "backend"),
		mvccSnapshotReads: r.Counter("proust_stm_mvcc_snapshot_reads_total",
			"Reads served to WithReadOnly snapshot transactions under the mvcc "+
				"backend (no read log, no validation, no aborts).", "backend"),
		mvccVersionsLive: r.Gauge("proust_stm_mvcc_versions_live",
			"History version nodes currently chained behind mvcc refs "+
				"(appended minus reclaimed).", "backend"),
		mvccWatermarkLag: r.Gauge("proust_stm_mvcc_watermark_lag",
			"Distance between the newest shard clock and the mvcc GC watermark: "+
				"how far the oldest active snapshot reader holds history back.", "backend"),
	}
	r.OnGather(c.collect)
	return c
}

// Attach registers (or replaces) the scraped STM instance for its backend.
func (c *STMCollector) Attach(s *stm.STM) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	c.stms[s.Backend().Name()] = s
	c.mu.Unlock()
}

// Snapshots returns the current stats of every attached instance by backend.
func (c *STMCollector) Snapshots() map[string]stm.StatsSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]stm.StatsSnapshot, len(c.stms))
	for name, s := range c.stms {
		out[name] = s.Stats()
	}
	return out
}

func (c *STMCollector) collect() {
	c.mu.Lock()
	stms := make(map[string]*stm.STM, len(c.stms))
	for name, s := range c.stms {
		stms[name] = s
	}
	c.mu.Unlock()
	for backend, s := range stms {
		st := s.Stats()
		c.starts.With(backend).set(st.Starts)
		c.commits.With(backend).set(st.Commits)
		for cause, n := range st.AbortsByCause() {
			c.aborts.With(backend, cause).set(n)
		}
		c.escalations.With(backend).set(st.Escalations)
		c.serialCommits.With(backend).set(st.SerialCommits)
		c.abandoned.With(backend, "max_attempts").set(st.MaxAttemptsAborts)
		c.abandoned.With(backend, "canceled").set(st.CanceledTxns)
		c.abandoned.With(backend, "deadline").set(st.DeadlineTxns)
		c.abandoned.With(backend, "closed").set(st.ClosedTxns)
		c.crossShard.With(backend).set(st.CrossShardCommits)
		c.shardSkew.With(backend).Set(int64(s.ShardClockSkew()))
		c.epoch.With(backend).Set(int64(s.Epoch()))
		c.epochExtensions.With(backend).set(st.EpochExtensions)
		for name, h := range map[string]stm.DurationHistSnapshot{
			"validation": st.ValidationTime,
			"lock_hold":  st.LockHold,
		} {
			c.quant.With(backend, name, "0.5").Set(int64(h.Quantile(0.5)))
			c.quant.With(backend, name, "0.99").Set(int64(h.Quantile(0.99)))
			c.samples.With(backend, name, itoa(h.SampleEvery)).set(h.Count)
			c.observations.With(backend, name).set(h.EstimatedTotal())
		}
		if tel, ok := s.MVCCTelemetry(); ok {
			c.mvccSnapshotReads.With(backend).set(st.MVCCSnapshotReads)
			c.mvccVersionsLive.With(backend).Set(tel.VersionsLive)
			c.mvccWatermarkLag.With(backend).Set(int64(tel.WatermarkLag))
		}
		for shard, clock := range s.ShardClocks(nil) {
			c.shardClock.With(backend, itoa(uint64(shard))).set(clock)
		}
	}
}

// ShardHeatReport is the JSON payload of the /shards endpoint for one
// attached STM instance: the per-shard commit clocks (indexed by shard) plus
// the headline aggregate the forensics reporter leads with.
type ShardHeatReport struct {
	Backend string   `json:"backend"`
	Clocks  []uint64 `json:"clocks"`
	// ClockGini is the Gini coefficient of the per-shard clock values:
	// 0 = commits spread evenly, →1 = one shard absorbs everything.
	ClockGini float64 `json:"clock_gini"`
}

// ShardReport builds the heat report for one STM instance.
func ShardReport(s *stm.STM) ShardHeatReport {
	clocks := s.ShardClocks(nil)
	return ShardHeatReport{Backend: s.Backend().Name(), Clocks: clocks, ClockGini: Gini(clocks)}
}

// ShardReports returns a heat report per attached backend, the collector-level
// mirror of LockObserver.HotShards for the timebase side.
func (c *STMCollector) ShardReports() map[string]ShardHeatReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	stms := make(map[string]*stm.STM, len(c.stms))
	for name, s := range c.stms {
		stms[name] = s
	}
	c.mu.Unlock()
	out := make(map[string]ShardHeatReport, len(stms))
	for name, s := range stms {
		out[name] = ShardReport(s)
	}
	return out
}

// Gini returns the Gini coefficient of the values (0 = perfectly even,
// →1 = maximally concentrated). Zero for empty or all-zero input.
func Gini(vals []uint64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := append([]uint64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total, weighted float64
	for i, v := range sorted {
		total += float64(v)
		weighted += float64(i+1) * float64(v)
	}
	if total == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*total) / (float64(n) * total)
}

// RegisterSTM mirrors one STM instance's Stats into r — the single-embedder
// convenience over STMCollector.
func RegisterSTM(r *Registry, s *stm.STM) {
	if r == nil || s == nil {
		return
	}
	NewSTMCollector(r).Attach(s)
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// multiTracer fans one event out to several tracers.
type multiTracer []stm.Tracer

func (m multiTracer) Trace(ev stm.TraceEvent) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// tsFreeMulti is a multiTracer every member of which is stm.TimestampFree;
// the combination advertises the same, keeping the clock read skipped.
type tsFreeMulti struct{ multiTracer }

func (tsFreeMulti) TimestampFree() {}

// phaseMulti is a multiTracer with at least one stm.PhaseTracer member: the
// combination advertises the phase facet and fans samples to those members,
// so the STM keeps its phase accounting armed behind a combined tracer.
type phaseMulti struct {
	multiTracer
	phasers []stm.PhaseTracer
}

func (m phaseMulti) TracePhases(ps stm.PhaseSample) {
	for _, p := range m.phasers {
		p.TracePhases(ps)
	}
}

// tsFreePhaseMulti is a phaseMulti whose members are all stm.TimestampFree.
type tsFreePhaseMulti struct{ phaseMulti }

func (tsFreePhaseMulti) TimestampFree() {}

// Tracers combines tracers into one (nil entries are dropped). With zero or
// one live tracers it returns nil or the tracer itself, preserving the
// single-branch fast path. If every live tracer is stm.TimestampFree, so is
// the combination; if any live tracer is an stm.PhaseTracer, the combination
// forwards phase samples to every such member.
func Tracers(ts ...stm.Tracer) stm.Tracer {
	var live multiTracer
	var phasers []stm.PhaseTracer
	allTSFree := true
	for _, t := range ts {
		switch v := t.(type) {
		case nil:
			continue
		case *FlightRecorder:
			if v == nil {
				continue
			}
		case *FalseConflictEstimator:
			if v == nil {
				continue
			}
		case *PhaseObserver:
			if v == nil {
				continue
			}
		}
		if _, ok := t.(stm.TimestampFree); !ok {
			allTSFree = false
		}
		if p, ok := t.(stm.PhaseTracer); ok {
			phasers = append(phasers, p)
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		if len(phasers) > 0 {
			pm := phaseMulti{multiTracer: live, phasers: phasers}
			if allTSFree {
				return tsFreePhaseMulti{pm}
			}
			return pm
		}
		if allTSFree {
			return tsFreeMulti{live}
		}
		return live
	}
}
