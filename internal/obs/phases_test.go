package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proust/internal/stm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// phaseNS builds a PhaseNS array from (phase, ns) pairs.
func phaseNS(pairs ...int64) [stm.NumPhases]int64 {
	var out [stm.NumPhases]int64
	for i := 0; i+1 < len(pairs); i += 2 {
		out[pairs[i]] = pairs[i+1]
	}
	return out
}

func TestPhaseObserverRecordsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	po := NewPhaseObserver(r, 4)
	for i := 0; i < 6; i++ {
		po.TracePhases(stm.PhaseSample{
			Backend: "ccstm", Kind: stm.TraceCommit, Serial: uint64(i),
			StartNS: int64(1000 - 10*i), TotalNS: int64(100 * (i + 1)),
			PhaseNS: phaseNS(int64(stm.PhaseBody), int64(100*(i+1))),
		})
	}
	s := po.Samples()
	if len(s) != 4 {
		t.Fatalf("ring retained %d samples, want capacity 4", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i].StartNS < s[i-1].StartNS {
			t.Fatalf("samples not start-ordered at %d: %+v", i, s)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`proust_txn_phase_nanoseconds_count{backend="ccstm",phase="body",sampled="8"} 6`,
		`proust_txn_latency_nanoseconds_count{backend="ccstm",sampled="8"} 6`,
		`proust_txn_latency_quantile_nanoseconds{backend="ccstm",q="0.5"}`,
		`proust_txn_latency_quantile_nanoseconds{backend="ccstm",q="0.999"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
}

// TestTracersPhaseFacet: the fan-out combinator forwards the PhaseTracer facet
// and keeps the TimestampFree marker semantics intact.
func TestTracersPhaseFacet(t *testing.T) {
	fr := NewFlightRecorder(1, 16)
	po := NewPhaseObserver(nil, 4) // nil registry: metrics no-op, ring records
	combo := Tracers(fr, po)
	pt, ok := combo.(stm.PhaseTracer)
	if !ok {
		t.Fatal("combined tracer lost the PhaseTracer facet")
	}
	pt.TracePhases(stm.PhaseSample{Backend: "tl2", Kind: stm.TraceCommit, Serial: 1, TotalNS: 5})
	if got := po.Samples(); len(got) != 1 || got[0].Serial != 1 {
		t.Fatalf("phase sample did not reach observer: %+v", got)
	}
	if _, ok := combo.(stm.TimestampFree); ok {
		t.Error("flight recorder wants timestamps; combo must not be TimestampFree")
	}
	tsf := Tracers(tsFreeStub{}, po)
	if _, ok := tsf.(stm.TimestampFree); !ok {
		t.Error("all-TimestampFree combo should stay TimestampFree")
	}
	if _, ok := tsf.(stm.PhaseTracer); !ok {
		t.Error("TimestampFree combo lost the PhaseTracer facet")
	}
	var nilPO *PhaseObserver
	if got := Tracers(nilPO, fr); got != fr {
		t.Error("nil *PhaseObserver not elided from fan-out")
	}
}

// TestWriteChromeTraceRoundTrip: the exported trace decodes as valid Chrome
// trace-event JSON with the expected event census, lane separation for
// overlapping attempts, and phase slices that partition the enclosing slice.
func TestWriteChromeTraceRoundTrip(t *testing.T) {
	samples := []stm.PhaseSample{
		{Backend: "tl2", Kind: stm.TraceCommit, Serial: 2, Attempt: 1, Reads: 3, Writes: 1,
			StartNS: 2000, TotalNS: 300,
			PhaseNS: phaseNS(int64(stm.PhaseBody), 100, int64(stm.PhaseRead), 150, int64(stm.PhaseValidate), 50)},
		// Starts before the first ends: must land on a second lane.
		{Backend: "tl2", Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: 3, Attempt: 2,
			StartNS: 2100, TotalNS: 400,
			PhaseNS: phaseNS(int64(stm.PhaseBody), 200, int64(stm.PhaseValidate), 200)},
	}
	events := []stm.TraceEvent{
		{Backend: "tl2", Kind: stm.TraceCommit, Serial: 2, TS: 2300},
		{Backend: "tl2", Kind: stm.TraceCommit, Serial: 9, TS: 0}, // timestamp-free: dropped
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, samples, events); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	var xs, is, ms []chromeEvent
	for _, e := range tr.TraceEvents {
		switch e.Phase {
		case "X":
			xs = append(xs, e)
		case "i":
			is = append(is, e)
		case "M":
			ms = append(ms, e)
		}
	}
	// 2 enclosing txn slices + 3 + 2 phase slices; 1 placeable instant; process
	// metadata + one thread_name per lane.
	if len(xs) != 7 || len(is) != 1 || len(ms) != 3 {
		t.Fatalf("event census X=%d i=%d M=%d, want 7/1/3", len(xs), len(is), len(ms))
	}
	var txns []chromeEvent
	minTS := tr.TraceEvents[1].TS
	for _, e := range xs {
		if e.TS < minTS {
			minTS = e.TS
		}
		if e.Cat == "txn" {
			txns = append(txns, e)
		}
	}
	if minTS != 0 {
		t.Errorf("timestamps not normalized to base: min ts = %g", minTS)
	}
	if len(txns) != 2 || txns[0].TID == txns[1].TID {
		t.Errorf("overlapping attempts share a lane: %+v", txns)
	}
	if want := "txn abort (validation)"; txns[1].Name != want {
		t.Errorf("abort slice name = %q, want %q", txns[1].Name, want)
	}
	// Phase children of each txn partition its duration exactly.
	for _, txn := range txns {
		var sum float64
		for _, e := range xs {
			if e.Cat == "phase" && e.TID == txn.TID &&
				e.TS >= txn.TS && e.TS < txn.TS+txn.Dur {
				sum += e.Dur
			}
		}
		if sum != txn.Dur {
			t.Errorf("lane %d phase slices sum to %gµs, enclosing slice is %gµs",
				txn.TID, sum, txn.Dur)
		}
	}
	if is[0].Scope != "t" || is[0].Name != "tl2 commit" {
		t.Errorf("instant event = %+v", is[0])
	}
}

// TestMetricsExpositionGolden pins the Prometheus text exposition byte-for-
// byte against testdata/metrics.golden (regenerate with go test -run Golden
// -update). Deterministic inputs only: fixed counters, a count-unit
// histogram, and one phase sample feeding the sampled families plus the
// quantile gauges.
func TestMetricsExpositionGolden(t *testing.T) {
	r := NewRegistry()
	po := NewPhaseObserver(r, 8)
	r.Counter("proust_stm_commits_total", "Committed transactions.", "backend").
		With("tl2").Add(16)
	r.Gauge("proust_threads", "Worker threads.").With().Set(4)
	depth := r.Histogram("proust_adt_replay_depth",
		"Replayed operations per commit.", UnitCount, "structure").With("map")
	for _, d := range []uint64{1, 1, 1, 3} {
		depth.Observe(d)
	}
	po.TracePhases(stm.PhaseSample{
		Backend: "tl2", Kind: stm.TraceCommit, Serial: 1, Attempt: 1,
		StartNS: 10, TotalNS: 1000,
		PhaseNS: phaseNS(int64(stm.PhaseBody), 600, int64(stm.PhaseRead), 300,
			int64(stm.PhasePublish), 100),
	})

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file\n--- got ---\n%s--- want ---\n%s",
			buf.String(), want)
	}
}

// TestServeGracefulDrain: the Serve shutdown func lets an in-flight request
// finish writing before it returns, and refuses new connections afterwards.
func TestServeGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	slow := Endpoint{Path: "/slow", Handler: func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		close(started)
		<-release
		io.WriteString(w, "drained")
	}}
	addr, stop, err := Serve("127.0.0.1:0", NewRegistry(), nil, slow)
	if err != nil {
		t.Fatal(err)
	}

	bodyCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			errCh <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			errCh <- err
			return
		}
		bodyCh <- string(b)
	}()

	<-started
	stopDone := make(chan error, 1)
	go func() { stopDone <- stop() }()
	// The handler is still blocked: shutdown must be draining, not done.
	select {
	case err := <-stopDone:
		t.Fatalf("shutdown returned while a request was in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-stopDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case body := <-bodyCh:
		if body != "drained" {
			t.Fatalf("in-flight body = %q, want %q", body, "drained")
		}
	case err := <-errCh:
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/slow"); err == nil {
		t.Error("request after shutdown unexpectedly succeeded")
	}
}
