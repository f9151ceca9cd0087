package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"proust/internal/obs"
	"proust/internal/stm"
)

func u(v uint64) *uint64 { return &v }

func i64(v int64) *int64 { return &v }

// encodeDump renders events and samples as the mixed JSONL stream proust-bench
// writes (events first, then samples).
func encodeDump(t *testing.T, events []stm.TraceEvent, samples []stm.PhaseSample) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, ps := range samples {
		if err := enc.Encode(ps); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func phaseNS(pairs ...int64) [stm.NumPhases]int64 {
	var out [stm.NumPhases]int64
	for i := 0; i+1 < len(pairs); i += 2 {
		out[pairs[i]] = pairs[i+1]
	}
	return out
}

func testDump(t *testing.T) Dump {
	t.Helper()
	var events []stm.TraceEvent
	for i := 0; i < 10; i++ {
		events = append(events, stm.TraceEvent{Backend: "tl2", Kind: stm.TraceCommit, Serial: uint64(i)})
	}
	// Four aborts: three validation aborts on key 7 (put), one lock conflict
	// carrying keys 7 and 9.
	for i := 0; i < 3; i++ {
		events = append(events, stm.TraceEvent{
			Backend: "tl2", Kind: stm.TraceAbort, Cause: stm.CauseValidation,
			Serial: uint64(100 + i),
			Ops:    []stm.OpRecord{{Op: "put", Key: 7}},
		})
	}
	events = append(events, stm.TraceEvent{
		Backend: "tl2", Kind: stm.TraceAbort, Cause: stm.CauseLockConflict, Serial: 200,
		Ops: []stm.OpRecord{{Op: "put", Key: 7}, {Op: "get", Key: 9}},
	})
	samples := []stm.PhaseSample{
		{Backend: "tl2", Kind: stm.TraceCommit, Serial: 1, StartNS: 100, TotalNS: 300,
			PhaseNS: phaseNS(int64(stm.PhaseBody), 200, int64(stm.PhasePublish), 100)},
		{Backend: "tl2", Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: 101,
			StartNS: 150, TotalNS: 500,
			PhaseNS: phaseNS(int64(stm.PhaseBody), 100, int64(stm.PhaseValidate), 400)},
	}
	text := encodeDump(t, events, samples)
	d, err := ParseDump(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testFams() []obs.FamilySnapshot {
	lbl := func(shard string) map[string]string {
		return map[string]string{"backend": "tl2", "shard": shard}
	}
	return []obs.FamilySnapshot{
		{Name: "proust_stm_shard_clock", Metrics: []obs.MetricSnapshot{
			{Labels: lbl("0"), Count: u(90)},
			{Labels: lbl("1"), Count: u(10)},
		}},
		{Name: "proust_stm_epoch_extensions_total", Metrics: []obs.MetricSnapshot{
			{Labels: map[string]string{"backend": "tl2"}, Count: u(0)},
		}},
		{Name: "proust_stm_validation_shards_total", Metrics: []obs.MetricSnapshot{
			{Labels: map[string]string{"backend": "tl2", "result": "checked"}, Count: u(100)},
			{Labels: map[string]string{"backend": "tl2", "result": "skipped"}, Count: u(1)},
		}},
		{Name: "proust_server_connections", Metrics: []obs.MetricSnapshot{
			{Value: i64(3)},
		}},
		{Name: "proust_server_requests_total", Metrics: []obs.MetricSnapshot{
			{Labels: map[string]string{"outcome": "ok"}, Count: u(600)},
			{Labels: map[string]string{"outcome": "shed"}, Count: u(400)},
		}},
		{Name: "proust_server_ro_batches_total", Metrics: []obs.MetricSnapshot{
			{Count: u(150)},
		}},
		{Name: "proust_server_pipeline_depth", Metrics: []obs.MetricSnapshot{
			{Histogram: &obs.HistogramSnapshot{Sum: 64, Count: 2}},
		}},
	}
}

func TestParseDumpSniffsMixedStream(t *testing.T) {
	d := testDump(t)
	if len(d.Events) != 14 || len(d.Samples) != 2 {
		t.Fatalf("parsed %d events, %d samples; want 14, 2", len(d.Events), len(d.Samples))
	}
	if d.Samples[1].Cause != stm.CauseValidation || d.Samples[1].PhaseNS[stm.PhaseValidate] != 400 {
		t.Errorf("sample fields lost in round-trip: %+v", d.Samples[1])
	}
	if _, err := ParseDump(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line did not fail the parse")
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(testDump(t), testFams(), 3)

	if a.Commits != 10 || a.Aborts != 4 {
		t.Fatalf("commits=%d aborts=%d, want 10/4", a.Commits, a.Aborts)
	}
	if a.AbortsByCause["validation"] != 3 || a.AbortsByCause["lock-conflict"] != 1 {
		t.Errorf("aborts by cause = %v", a.AbortsByCause)
	}
	if a.AbortPhase["validation"]["validate"] != 1 {
		t.Errorf("abort phase breakdown = %v", a.AbortPhase)
	}
	if a.PhaseTotalsNS["body"] != 300 || a.PhaseTotalsNS["validate"] != 400 {
		t.Errorf("phase totals = %v", a.PhaseTotalsNS)
	}
	if len(a.TopKeys) == 0 || a.TopKeys[0] != (KeyConflict{Key: 7, Op: "put", Aborts: 4}) {
		t.Errorf("top keys = %+v", a.TopKeys)
	}
	if a.Server == nil {
		t.Fatal("server families present but Server summary is nil")
	}
	if a.Server.Connections != 3 || a.Server.RequestsOK != 600 || a.Server.RequestsShed != 400 {
		t.Errorf("server summary = %+v", a.Server)
	}
	if a.Server.ROBatches != 150 || a.Server.MeanPipelineDepth != 32 {
		t.Errorf("server ro/pipeline = %+v", a.Server)
	}
	if a.Server.ShedRatio != 0.4 {
		t.Errorf("shed ratio = %v, want 0.4", a.Server.ShedRatio)
	}
	found := false
	for _, h := range a.Hints {
		if strings.Contains(h, "shed") {
			found = true
		}
	}
	if !found {
		t.Errorf("40%% shed produced no server hint: %v", a.Hints)
	}

	s, ok := a.ShardsByBackend["tl2"]
	if !ok {
		t.Fatal("no shard summary for tl2")
	}
	if s.Shards != 2 || s.HottestShard != 0 || s.HottestClock != 90 || s.TotalClock != 100 {
		t.Errorf("shard summary = %+v", s)
	}
	// Gini over {10, 90}: (2·(1·10+2·90) − 3·100) / (2·100) = 0.4.
	if s.ClockGini < 0.399 || s.ClockGini > 0.401 {
		t.Errorf("clock Gini = %g, want 0.4", s.ClockGini)
	}
	if s.ValidationChecked != 100 || s.ValidationSkipped != 1 {
		t.Errorf("validation accounting = %+v", s)
	}

	// 4 of 14 events aborted with validation dominant and a <10% validation
	// skip rate: two hints fire.
	wantHints := []string{"validation aborts dominate", "partitioned validation skips only"}
	for _, want := range wantHints {
		found := false
		for _, h := range a.Hints {
			if strings.Contains(h, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing hint containing %q in %v", want, a.Hints)
		}
	}
}

func TestAnalyzeTopNTruncation(t *testing.T) {
	var events []stm.TraceEvent
	for k := 0; k < 5; k++ {
		events = append(events, stm.TraceEvent{
			Kind: stm.TraceAbort, Cause: stm.CauseValidation, Serial: uint64(k),
			Ops: []stm.OpRecord{{Op: "put", Key: uint64(k)}},
		})
	}
	a := Analyze(Dump{Events: events}, nil, 2)
	if len(a.TopKeys) != 2 {
		t.Errorf("topN not applied: %+v", a.TopKeys)
	}
}

func TestAnalyzeHealthyHint(t *testing.T) {
	a := Analyze(Dump{Events: []stm.TraceEvent{{Kind: stm.TraceCommit, Serial: 1}}}, nil, 0)
	if len(a.Hints) != 1 || !strings.Contains(a.Hints[0], "nothing stands out") {
		t.Errorf("healthy run hints = %v", a.Hints)
	}
}

func TestWriteText(t *testing.T) {
	a := Analyze(testDump(t), testFams(), 5)
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"commits: 10  aborts: 4",
		"aborts by cause:",
		"abort phase breakdown",
		"key 0x0000000000000007  op put      aborts 4",
		"tl2: 2 shards, hottest shard 0 (clock 90 of 100), Gini 0.40",
		"tune this:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q\n---\n%s", want, text)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	raw, err := json.Marshal(testFams())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 7 || fams[0].Name != "proust_stm_shard_clock" {
		t.Errorf("metrics round-trip = %+v", fams)
	}
}

// TestRatioGuards pins the zero-denominator contract of the ratio/pct
// helpers every emitted percentage routes through.
func TestRatioGuards(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := pct(3, 0); got != 0 {
		t.Errorf("pct(3, 0) = %v, want 0", got)
	}
	if got := pct(1, 4); got != 25 {
		t.Errorf("pct(1, 4) = %v, want 25", got)
	}
}

// nonFinite matches the substrings a NaN or ±Inf float prints as under %f/%v.
func assertFiniteText(t *testing.T, text string) {
	t.Helper()
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(text, bad) {
			t.Errorf("renderer emitted a non-finite number (%s):\n---\n%s", bad, text)
		}
	}
}

// TestRenderersEmptyDump feeds a fully empty dump through both renderers:
// every section denominator (events, validation visits) is
// zero, and neither the text report nor the JSON encoding may produce a
// non-finite number (json.Encode rejects NaN/Inf outright, so a missing
// guard fails this test loudly).
func TestRenderersEmptyDump(t *testing.T) {
	a := Analyze(Dump{}, nil, 0)
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatalf("WriteText on empty analysis: %v", err)
	}
	assertFiniteText(t, buf.String())
	if !strings.Contains(buf.String(), "commits: 0  aborts: 0 (0.0% of events)") {
		t.Errorf("empty report missing zero-guarded abort-rate line:\n%s", buf.String())
	}
	var js bytes.Buffer
	if err := json.NewEncoder(&js).Encode(a); err != nil {
		t.Fatalf("json.Encode on empty analysis: %v", err)
	}
	assertFiniteText(t, js.String())
}

// TestRenderersZeroCountSections renders an analysis whose sections are
// present but all-zero — the abort-forensics shape of a run that traced
// nothing — through text and JSON, covering the in-section ratios
// (validation-skip percentage, abort rate) at denominator
// zero.
func TestRenderersZeroCountSections(t *testing.T) {
	a := Analysis{
		ShardsByBackend: map[string]ShardSummary{
			"tl2": {Shards: 2, ValidationChecked: 1},
		},
		AbortsByCause: map[string]uint64{},
		Hints:         []string{"nothing stands out"},
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	assertFiniteText(t, buf.String())
	for _, want := range []string{
		"validation: 1 shard visits checked, 0 skipped (0.0% skipped)",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("zero-count report missing %q:\n%s", want, buf.String())
		}
	}
	var js bytes.Buffer
	if err := json.NewEncoder(&js).Encode(a); err != nil {
		t.Fatalf("json.Encode: %v", err)
	}
	assertFiniteText(t, js.String())
}
