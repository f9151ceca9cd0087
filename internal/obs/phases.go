package obs

import (
	"sort"
	"sync/atomic"

	"proust/internal/stm"
)

// PhaseObserver consumes stm.PhaseSample records (the per-attempt phase
// breakdown the STM emits for 1-in-stm.HistogramSampleEvery sampled attempts
// when a PhaseTracer is attached) and feeds three sinks:
//
//   - per-phase latency histograms, labeled {backend, phase, sampled="8"} so
//     exposition consumers can never misread the sampled counts as totals;
//   - an end-to-end per-transaction latency histogram per backend, from which
//     p50/p95/p99/p99.9 gauges are refreshed on every gather;
//   - a lock-free ring of recent raw samples for trace export
//     (WriteChromeTrace, the /trace endpoint).
//
// It implements stm.Tracer (the lifecycle Trace call is a no-op — only the
// phase facet matters) and stm.TimestampFree, so combining it with counting
// tracers via Tracers keeps the commit-path clock read skipped; the phase
// samples carry their own timestamps from the STM's monotonic epoch clock.
type PhaseObserver struct {
	phase *HistogramVec // labels: backend, phase, sampled
	total *HistogramVec // labels: backend, sampled
	quant *GaugeVec     // labels: backend, q

	slots []atomic.Pointer[stm.PhaseSample]
	mask  uint64
	next  atomic.Uint64
}

var (
	_ stm.PhaseTracer   = (*PhaseObserver)(nil)
	_ stm.TimestampFree = (*PhaseObserver)(nil)
)

// NewPhaseObserver registers the phase families on r (nil-safe: metrics
// become no-ops, the sample ring still records) and returns an observer
// retaining the most recent capacity samples (rounded up to a power of two;
// non-positive selects 1024).
func NewPhaseObserver(r *Registry, capacity int) *PhaseObserver {
	if capacity <= 0 {
		capacity = 1024
	}
	np := 1
	for np < capacity {
		np <<= 1
	}
	po := &PhaseObserver{
		phase: r.Histogram("proust_txn_phase_nanoseconds",
			"Per-attempt time in each transaction phase (body, read, validate, "+
				"lock, stamp, publish), from sampled attempts only — multiply "+
				"counts by the sampled label to estimate population totals.",
			UnitNanoseconds, "backend", "phase", "sampled"),
		total: r.Histogram("proust_txn_latency_nanoseconds",
			"End-to-end per-attempt transaction latency (begin to commit or "+
				"abort), from sampled attempts only.",
			UnitNanoseconds, "backend", "sampled"),
		quant: r.Gauge("proust_txn_latency_quantile_nanoseconds",
			"Per-transaction latency percentile estimates over the sampled "+
				"end-to-end histogram (refreshed on every gather).",
			"backend", "q"),
		slots: make([]atomic.Pointer[stm.PhaseSample], np),
		mask:  uint64(np - 1),
	}
	r.OnGather(po.refreshQuantiles)
	return po
}

// Trace implements stm.Tracer; lifecycle events are consumed elsewhere.
func (po *PhaseObserver) Trace(stm.TraceEvent) {}

// TimestampFree implements stm.TimestampFree: the observer never reads
// TraceEvent.TS (phase samples carry their own stamps).
func (po *PhaseObserver) TimestampFree() {}

// sampledLabel is the constant sampled="N" label value carried by the phase
// families, the exposition-side record of the STM's histogram sampling factor.
var sampledLabel = itoa(stm.HistogramSampleEvery)

// TracePhases implements stm.PhaseTracer. Safe for concurrent use; a nil
// receiver is a no-op.
func (po *PhaseObserver) TracePhases(ps stm.PhaseSample) {
	if po == nil {
		return
	}
	for i, d := range ps.PhaseNS {
		if d > 0 {
			po.phase.With(ps.Backend, stm.Phase(i).String(), sampledLabel).Observe(uint64(d))
		}
	}
	po.total.With(ps.Backend, sampledLabel).Observe(uint64(ps.TotalNS))
	i := po.next.Add(1) - 1
	s := ps // heap copy owned by the ring
	po.slots[i&po.mask].Store(&s)
}

// Samples returns a copy of the retained phase samples ordered by start time
// (then serial).
func (po *PhaseObserver) Samples() []stm.PhaseSample {
	if po == nil {
		return nil
	}
	var out []stm.PhaseSample
	for i := range po.slots {
		if p := po.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].Serial < out[j].Serial
	})
	return out
}

// latencyQuantiles is the percentile set refreshed into the quantile gauges.
var latencyQuantiles = []struct {
	name string
	q    float64
}{
	{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}, {"0.999", 0.999},
}

// refreshQuantiles recomputes the per-backend latency percentile gauges from
// the end-to-end histogram children; runs on every gather.
func (po *PhaseObserver) refreshQuantiles() {
	if po == nil || po.total == nil || po.total.f == nil {
		return
	}
	for _, c := range po.total.f.sortedChildren() {
		snap := c.hist.snapshot()
		backend := c.labelVals[0]
		for _, lq := range latencyQuantiles {
			po.quant.With(backend, lq.name).Set(int64(snap.Quantile(lq.q)))
		}
	}
}
