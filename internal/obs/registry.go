// Package obs is the observability subsystem of the Proust reproduction: a
// dependency-free metrics registry (atomic counters, gauges and power-of-two
// histograms with label vectors), a Prometheus-text / JSON / pprof HTTP
// exporter, a lock-free transaction flight recorder, and conflict-attribution
// adapters for every layer of the paper's mapping — stm.Stats/Tracer at the
// bottom, lock.Observer for abstract-lock contention, core.Sink for
// per-ADT-operation outcomes, and a false-conflict estimator cross-checking
// STM-level aborts against the ADT commutativity oracle.
//
// Everything nil-checks: an embedder that attaches no Registry (and no
// tracer) pays one predictable branch per instrumented site, keeping the
// hot paths within the repository's ≤5% overhead budget.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Unit declares how histogram observations are rendered in exposition.
type Unit int

const (
	// UnitCount renders bucket bounds as plain numbers (depths, sizes).
	UnitCount Unit = iota + 1
	// UnitNanoseconds renders bucket bounds as seconds (Prometheus
	// convention) from nanosecond observations.
	UnitNanoseconds
)

// Counter is a monotonically increasing counter. A nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// set overwrites the value; used by gather-time collectors that mirror
// external cumulative counters (e.g. stm.Stats) into the registry.
func (c *Counter) set(n uint64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Gauge is a value that can go up and down. A nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two buckets: bucket i counts
// observations whose value has bit length i (i.e. [2^(i-1), 2^i)), the last
// bucket absorbing the rest. Same shape as stm.DurationHist.
const histBuckets = 40

// Histogram is a fixed-size power-of-two histogram. Observing is one atomic
// increment plus one atomic add; safe on hot paths. A nil Histogram is a
// no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// Observe records one observation (interpreted per the family's Unit).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets []uint64 `json:"buckets"`
	Sum     uint64   `json:"sum"`
	Count   uint64   `json:"count"`
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1).
func (s HistogramSnapshot) Quantile(q float64) uint64 {
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
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(s.Buckets) - 1)
}

func bucketUpper(i int) uint64 {
	if i <= 0 {
		return 1
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << i
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Buckets: make([]uint64, histBuckets)}
	for i := range h.buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	out.Sum = h.sum.Load()
	out.Count = h.count.Load()
	return out
}

// metricKind discriminates family types.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric with a fixed label schema and a child per label
// combination.
type family struct {
	name   string
	help   string
	kind   metricKind
	unit   Unit
	labels []string

	mu       sync.RWMutex
	children map[string]*child // key: joined label values
}

type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// labelKey joins label values with an unlikely separator.
const labelSep = "\x1f"

func (f *family) child(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = &Histogram{}
	}
	f.children[key] = c
	return c
}

// CounterVec is a counter family with labels. Nil-safe.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(labelVals).counter
}

// GaugeVec is a gauge family with labels. Nil-safe.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(labelVals).gauge
}

// HistogramVec is a histogram family with labels. Nil-safe.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(labelVals).hist
}

// Registry holds metric families and optional gather hooks. The zero value
// is ready to use; a nil *Registry is a no-op (every constructor returns nil
// vectors whose methods are no-ops), which is the disabled-observability
// fast path.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string

	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(name, help string, kind metricKind, unit Unit, labels []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, unit: unit,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or fetches) a labeled counter family. Safe on a nil
// receiver (returns a nil vector).
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, kindCounter, UnitCount, labels)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// Gauge registers (or fetches) a labeled gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, kindGauge, UnitCount, labels)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// Histogram registers (or fetches) a labeled histogram family with the given
// observation unit.
func (r *Registry) Histogram(name, help string, unit Unit, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogram, unit, labels)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// OnGather registers a hook run before every exposition (text or JSON).
// Collectors mirroring external state — stm.Stats snapshots, runtime gauges —
// refresh their families here, making the registry pull-based like a
// Prometheus scrape.
func (r *Registry) OnGather(hook func()) {
	if r == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, hook)
	r.hookMu.Unlock()
}

func (r *Registry) gather() {
	if r == nil {
		return
	}
	r.hookMu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.hookMu.Unlock()
	for _, h := range hooks {
		h()
	}
}

// sortedChildren returns a family's children in deterministic label order.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].labelVals, labelSep) < strings.Join(out[j].labelVals, labelSep)
	})
	return out
}
