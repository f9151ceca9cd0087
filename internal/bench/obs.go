package bench

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"proust/internal/core"
	"proust/internal/obs"
	"proust/internal/stm"
)

// MapOpsCommute is the ADT commutativity oracle for the map workloads: two
// operations commute when they touch different keys, or when both are reads.
// It is the state-independent commutativity relation of the bounded map model
// (cross-checked against verify.Commutes over verify.NewMapModel in tests).
// OpRecord keys are key hashes, so colliding hashes of distinct keys are
// conservatively treated as the same key — biasing the false-conflict
// estimator toward "likely true", never toward overstating false conflicts.
func MapOpsCommute(a, b stm.OpRecord) bool {
	return a.Key != b.Key || (a.Op == "get" && b.Op == "get")
}

// Observability bundles the obs wiring for a benchmark process: one shared
// registry, flight recorder, false-conflict estimator, ADT-operation sink,
// abstract-lock observer and STM collector, attached to every System built
// through Instrumented factories.
type Observability struct {
	Registry  *obs.Registry
	Flight    *obs.FlightRecorder
	Estimator *obs.FalseConflictEstimator
	Sink      *obs.CoreSink
	LockObs   *obs.LockObserver
	Collector *obs.STMCollector
	Phases    *obs.PhaseObserver
}

// NewObservability builds the full wiring. flightCap bounds the flight
// recorder (non-positive selects its default).
func NewObservability(flightCap int) *Observability {
	r := obs.NewRegistry()
	return &Observability{
		Registry:  r,
		Flight:    obs.NewFlightRecorder(0, flightCap),
		Estimator: obs.NewFalseConflictEstimator(r, 256, MapOpsCommute),
		Sink:      obs.NewCoreSink(r),
		LockObs:   obs.NewLockObserver(r, benchMem),
		Collector: obs.NewSTMCollector(r),
		Phases:    obs.NewPhaseObserver(r, 0),
	}
}

// InstrumentSystem wires a freshly built System into the observability stack:
// lifecycle tracer (flight recorder + false-conflict estimator), scrape-time
// stats collection, per-operation outcome attribution on the map wrapper, and
// the abstract-lock observer for pessimistic systems. Must run before the
// system executes transactions; a nil receiver is a no-op.
func (o *Observability) InstrumentSystem(sys *System) {
	if o == nil {
		return
	}
	sys.STM.SetTracer(obs.Tracers(o.Flight, o.Estimator, o.Phases))
	o.Collector.Attach(sys.STM)
	if in, ok := sys.Map.(interface{ Instrument(string, core.Sink) }); ok {
		in.Instrument(sys.Name, o.Sink)
	}
	if sys.Locks != nil {
		sys.Locks.SetObserver(o.LockObs)
	}
}

// Instrumented wraps a factory so every System it builds is instrumented.
// With a nil receiver the factory is returned unchanged (zero overhead).
func (o *Observability) Instrumented(f Factory) Factory {
	if o == nil {
		return f
	}
	inner := f.New
	f.New = func() System {
		sys := inner()
		o.InstrumentSystem(&sys)
		return sys
	}
	return f
}

// SeriesPoint is one line of the periodic observability time series.
type SeriesPoint struct {
	TS            string                       `json:"ts"`
	ElapsedMS     int64                        `json:"elapsed_ms"`
	Backends      map[string]stm.StatsSnapshot `json:"backends"`
	FalseConflict obs.FalseConflictStats       `json:"false_conflict"`
	HotStripes    []obs.StripeContention       `json:"hot_stripes,omitempty"`
	Storms        uint64                       `json:"storms"`
}

// StartSeries samples the observability stack every interval and writes one
// JSON line per sample to w. The returned stop function halts the sampler
// and emits one final point.
func (o *Observability) StartSeries(w io.Writer, interval time.Duration) (stop func()) {
	if o == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	var (
		enc   = json.NewEncoder(w)
		mu    sync.Mutex
		start = time.Now()
		done  = make(chan struct{})
		wg    sync.WaitGroup
	)
	emit := func() {
		pt := SeriesPoint{
			TS:            time.Now().UTC().Format(time.RFC3339Nano),
			ElapsedMS:     time.Since(start).Milliseconds(),
			Backends:      o.Collector.Snapshots(),
			FalseConflict: o.Estimator.Stats(),
			HotStripes:    o.LockObs.HotStripes(8),
			Storms:        o.Flight.Storms(),
		}
		mu.Lock()
		_ = enc.Encode(pt)
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				emit()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		emit()
	}
}
