package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"proust/internal/lock"
	"proust/internal/stm"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help", "l")
	c.With("v").Inc()
	c.With("v").Add(3)
	if got := c.With("v").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Gauge("g", "help").With().Set(7)
	r.Histogram("h", "help", UnitCount).With().Observe(9)
	r.OnGather(func() { t.Error("hook on nil registry ran") })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteText = %q, %v", buf.String(), err)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Errorf("nil Snapshot = %v", snap)
	}
}

func TestRegistryTextExposition(t *testing.T) {
	r := NewRegistry()
	ops := r.Counter("proust_adt_ops_total", "ADT ops.", "structure", "op", "outcome")
	ops.With("map", "put", "committed").Add(41)
	gathered := false
	r.OnGather(func() {
		gathered = true
		ops.With("map", "put", "committed").Inc() // 42 at scrape time
	})
	r.Gauge("proust_threads", "Worker threads.").With().Set(8)
	h := r.Histogram("proust_wait_nanoseconds", "Waits.", UnitNanoseconds, "mode")
	h.With("read").Observe(1500) // bucket upper bound 2048ns → 2.048e-06s

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !gathered {
		t.Error("WriteText did not run OnGather hooks")
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP proust_adt_ops_total ADT ops.",
		"# TYPE proust_adt_ops_total counter",
		`proust_adt_ops_total{structure="map",op="put",outcome="committed"} 42`,
		"# TYPE proust_threads gauge",
		"proust_threads 8",
		"# TYPE proust_wait_nanoseconds histogram",
		`proust_wait_nanoseconds_bucket{mode="read",le="2.048e-06"} 1`,
		`proust_wait_nanoseconds_bucket{mode="read",le="+Inf"} 1`,
		`proust_wait_nanoseconds_sum{mode="read"} 1.5e-06`,
		`proust_wait_nanoseconds_count{mode="read"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "counter help", "k").With("v").Add(5)
	r.Histogram("h", "hist help", UnitCount).With().Observe(3)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap []FamilySnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 || snap[0].Name != "c_total" || *snap[0].Metrics[0].Count != 5 {
		t.Errorf("snapshot = %s", raw)
	}
	if snap[1].Metrics[0].Histogram.Count != 1 {
		t.Errorf("histogram snapshot = %+v", snap[1].Metrics[0])
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket upper 128
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000) // bucket upper 16384
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); q != 128 {
		t.Errorf("p50 = %d, want 128", q)
	}
	if q := s.Quantile(0.99); q != 16384 {
		t.Errorf("p99 = %d, want 16384", q)
	}
}

func TestFlightRecorderConcurrentAndDump(t *testing.T) {
	fr := NewFlightRecorder(4, 1024)
	const goroutines, events = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				fr.Trace(stm.TraceEvent{
					Backend: "tl2",
					Kind:    stm.TraceCommit,
					Serial:  uint64(g*events + i),
					TS:      int64(g*events + i),
					Ops:     []stm.OpRecord{{Op: "put", Key: uint64(i)}},
				})
			}
		}(g)
	}
	wg.Wait()

	evs := fr.Events()
	if len(evs) == 0 || len(evs) > fr.Cap() {
		t.Fatalf("retained %d events, cap %d", len(evs), fr.Cap())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events not timestamp-ordered at %d", i)
		}
	}
	var buf bytes.Buffer
	if err := fr.DumpJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var ev stm.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		lines++
	}
	if lines != len(evs) {
		t.Errorf("dump has %d lines, want %d", lines, len(evs))
	}
}

func TestFlightRecorderStormAutoDump(t *testing.T) {
	fr := NewFlightRecorder(2, 128)
	fired := 0
	fr.SetStormPolicy(10, int64(time.Millisecond), func(*FlightRecorder) { fired++ })
	// 9 aborts inside one window: below threshold.
	for i := 0; i < 9; i++ {
		fr.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: uint64(i), TS: int64(i)})
	}
	if fired != 0 {
		t.Fatalf("storm fired below threshold")
	}
	// Tenth abort in the same window crosses it — exactly one firing.
	for i := 9; i < 20; i++ {
		fr.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: uint64(i), TS: int64(i)})
	}
	if fired != 1 {
		t.Fatalf("storm fired %d times in one window, want 1", fired)
	}
	if fr.Storms() != 1 {
		t.Errorf("Storms() = %d", fr.Storms())
	}
	// A new window re-arms.
	base := int64(10 * time.Millisecond)
	for i := 0; i < 10; i++ {
		fr.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: uint64(100 + i), TS: base + int64(i)})
	}
	if fired != 2 {
		t.Errorf("storm did not re-arm in a new window: fired = %d", fired)
	}
}

func TestFalseConflictEstimator(t *testing.T) {
	commutes := func(a, b stm.OpRecord) bool {
		return a.Key != b.Key || (a.Op == "get" && b.Op == "get")
	}
	e := NewFalseConflictEstimator(NewRegistry(), 16, commutes)

	// A committed put(7) followed by an aborted attempt that also touched
	// key 7 with a put: real conflict.
	e.Trace(stm.TraceEvent{Kind: stm.TraceCommit, Serial: 1, Ops: []stm.OpRecord{{Op: "put", Key: 7}}})
	e.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: 2,
		Ops: []stm.OpRecord{{Op: "put", Key: 7}}})
	// An aborted attempt on a disjoint key: false conflict (hash aliasing).
	e.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseLockConflict, Serial: 3,
		Ops: []stm.OpRecord{{Op: "put", Key: 9}}})
	// Reads commute with reads even on the same key.
	e.Trace(stm.TraceEvent{Kind: stm.TraceCommit, Serial: 4, Ops: []stm.OpRecord{{Op: "get", Key: 5}}})
	e.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: 5,
		Ops: []stm.OpRecord{{Op: "get", Key: 5}}})
	// No op notes: unattributed.
	e.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseDoomed, Serial: 6})
	// User aborts are not conflicts and are ignored entirely.
	e.Trace(stm.TraceEvent{Kind: stm.TraceAbort, Cause: stm.CauseUser, Serial: 7,
		Ops: []stm.OpRecord{{Op: "put", Key: 7}}})

	s := e.Stats()
	want := FalseConflictStats{Examined: 4, LikelyFalse: 1, LikelyTrue: 1, Unattributed: 1}
	// The same-key get/get abort is likely-false too (commutes with both ring entries).
	want.LikelyFalse++
	want.Ratio = float64(want.LikelyFalse) / float64(want.LikelyFalse+want.LikelyTrue)
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

func TestLockObserverAndHotStripes(t *testing.T) {
	r := NewRegistry()
	o := NewLockObserver(r, 8)
	o.ObserveAcquire(3, lock.Write, 5*time.Microsecond, lock.Contended)
	o.ObserveAcquire(3, lock.Write, time.Microsecond, lock.TimedOut)
	o.ObserveAcquire(1, lock.Read, 0, lock.Uncontended)
	hot := o.HotStripes(4)
	if len(hot) != 1 || hot[0].Stripe != 3 || hot[0].Count != 2 {
		t.Errorf("hot stripes = %+v", hot)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(),
		`proust_lock_acquires_total{mode="write",outcome="contended"} 1`) {
		t.Errorf("missing contended counter:\n%s", buf.String())
	}
}

// TestLockObserverHotShards: per-stripe contention aggregates along the
// stripe table's shard grouping.
func TestLockObserverHotShards(t *testing.T) {
	table := lock.NewStripedSharded(8, 4) // 2 stripes per shard
	o := NewLockObserver(nil, table.Len())
	o.ObserveAcquire(0, lock.Write, 0, lock.Contended) // shard 0
	o.ObserveAcquire(1, lock.Write, 0, lock.Contended) // shard 0
	o.ObserveAcquire(6, lock.Write, 0, lock.TimedOut)  // shard 3
	hot := o.HotShards(4, table)
	if len(hot) != 2 || hot[0] != (ShardContention{Shard: 0, Count: 2}) ||
		hot[1] != (ShardContention{Shard: 3, Count: 1}) {
		t.Errorf("hot shards = %+v", hot)
	}
	if top := o.HotShards(1, table); len(top) != 1 || top[0].Shard != 0 {
		t.Errorf("HotShards(1) = %+v", top)
	}
}

func TestRegisterSTMExportsBackendStats(t *testing.T) {
	r := NewRegistry()
	s := stm.New(stm.WithBackend("tl2"))
	RegisterSTM(r, s)
	ref := stm.NewRef(s, 0)
	for i := 0; i < 10; i++ {
		if err := s.Atomically(func(tx *stm.Txn) error {
			ref.Set(tx, ref.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `proust_stm_commits_total{backend="tl2"} 10`) {
		t.Errorf("missing commits counter:\n%s", text)
	}
	if !strings.Contains(text, `proust_stm_aborts_total{backend="tl2",cause="validation"} 0`) {
		t.Errorf("missing abort-cause breakdown:\n%s", text)
	}
}

// TestSTMCollectorExportsRobustnessCounters: the escalation / serial-commit
// families and the abandonment-reason breakdown reach the scrape output.
func TestSTMCollectorExportsRobustnessCounters(t *testing.T) {
	r := NewRegistry()
	s := stm.New(
		stm.WithBackend("ccstm"),
		stm.WithEscalation(2),
		stm.WithChaos(stm.ChaosConfig{Seed: 5, DoomEvery: 1}),
	)
	RegisterSTM(r, s)
	ref := stm.NewRef(s, 0)
	for i := 0; i < 5; i++ {
		if err := s.Atomically(func(tx *stm.Txn) error {
			ref.Set(tx, ref.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	_ = s.Atomically(func(tx *stm.Txn) error { return nil }) // one closed_txns tick

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`proust_stm_escalations_total{backend="chaos-ccstm"} 5`,
		`proust_stm_serial_commits_total{backend="chaos-ccstm"} 5`,
		`proust_stm_aborts_total{backend="chaos-ccstm",cause="chaos"} 10`,
		`proust_stm_abandoned_total{backend="chaos-ccstm",reason="closed"} 1`,
		`proust_stm_abandoned_total{backend="chaos-ccstm",reason="canceled"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in scrape:\n%s", want, text)
		}
	}
}

// TestSTMCollectorExportsShardMetrics: the sharded-timebase families
// (cross-shard commits, clock skew, epoch, per-shard clocks) reach the scrape
// output.
func TestSTMCollectorExportsShardMetrics(t *testing.T) {
	r := NewRegistry()
	s := stm.New(stm.WithBackend("tl2"))
	RegisterSTM(r, s)
	// Ref ids are sequential and map to shards in blocks of 64, so two refs
	// allocated 64 ids apart land in adjacent shards; writing both in one
	// transaction forces a cross-shard (epoch-bumping) commit.
	a := stm.NewRef(s, 0)
	b := a
	for i := 0; i < 64; i++ {
		b = stm.NewRef(s, 0)
	}
	if err := s.Atomically(func(tx *stm.Txn) error {
		a.Set(tx, 1)
		b.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Atomically(func(tx *stm.Txn) error { a.Set(tx, 2); return nil }); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`proust_stm_cross_shard_commits_total{backend="tl2"} 1`,
		`proust_stm_epoch{backend="tl2"} 1`,
		`proust_stm_shard_clock_skew{backend="tl2"} 2`,
		`proust_stm_shard_clock{backend="tl2",shard="0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in scrape:\n%s", want, text)
		}
	}
}

func TestTracersCombinator(t *testing.T) {
	if Tracers() != nil {
		t.Error("empty Tracers() != nil")
	}
	var nilFR *FlightRecorder
	if Tracers(nil, nilFR) != nil {
		t.Error("Tracers of nils != nil")
	}
	fr := NewFlightRecorder(1, 16)
	if got := Tracers(nil, fr); got != fr {
		t.Error("single live tracer not returned unwrapped")
	}
	fr2 := NewFlightRecorder(1, 16)
	combo := Tracers(fr, fr2)
	combo.Trace(stm.TraceEvent{Kind: stm.TraceCommit, Serial: 1, TS: 1})
	if len(fr.Events()) != 1 || len(fr2.Events()) != 1 {
		t.Error("fan-out did not reach both tracers")
	}
	if _, ok := combo.(stm.TimestampFree); ok {
		t.Error("fan-out over flight recorders must not be TimestampFree")
	}
	tf := Tracers(tsFreeStub{}, tsFreeStub{})
	if _, ok := tf.(stm.TimestampFree); !ok {
		t.Error("fan-out over TimestampFree tracers should stay TimestampFree")
	}
	if _, ok := Tracers(tsFreeStub{}, fr).(stm.TimestampFree); ok {
		t.Error("mixed fan-out must not be TimestampFree")
	}
}

// tsFreeStub is a counting tracer that opts out of timestamps.
type tsFreeStub struct{}

func (tsFreeStub) Trace(stm.TraceEvent) {}
func (tsFreeStub) TimestampFree()       {}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("e2e_total", "end to end.").With().Add(3)
	fr := NewFlightRecorder(1, 16)
	fr.Trace(stm.TraceEvent{Backend: "tl2", Kind: stm.TraceCommit, Serial: 1, TS: 1})

	addr, stop, err := Serve("127.0.0.1:0", r, fr)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteString("\n")
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "e2e_total 3") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"e2e_total"`) {
		t.Errorf("/metrics.json = %d\n%s", code, body)
	}
	code, body := get("/flight")
	if code != 200 {
		t.Fatalf("/flight = %d", code)
	}
	var ev stm.TraceEvent
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &ev); err != nil || ev.Serial != 1 {
		t.Errorf("/flight body %q: %v", body, err)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}
