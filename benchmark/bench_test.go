package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	a, b, c := streamHash(1, 2000), streamHash(1, 2000), streamHash(2, 2000)
	if a != b {
		t.Fatalf("same seed, different op streams: %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("different seeds, same op stream: %x", a)
	}
}

func TestGeneratorMixes(t *testing.T) {
	fg := newFig4Gen(1, 0)
	kinds := map[uint8]int{}
	for i := 0; i < 40000; i++ {
		op := fg.next()
		kinds[op.kind]++
		if op.kind == opPut && op.val%fig4Keys != op.key {
			t.Fatalf("put value %d does not describe key %d", op.val, op.key)
		}
	}
	for kind, want := range map[uint8]float64{opGet: 0.5, opPut: 0.25, opRemove: 0.25} {
		if got := float64(kinds[kind]) / 40000; got < want-0.02 || got > want+0.02 {
			t.Errorf("lib-fig4 kind %d share %.3f, want %.2f", kind, got, want)
		}
	}
	bg := newBankGen(1, 0)
	audits := 0
	for i := 0; i < 100000; i++ {
		tx := bg.next()
		if tx.audit {
			audits++
		} else if tx.from == tx.to || tx.amt < 1 {
			t.Fatalf("bad transfer %+v", tx)
		}
	}
	if audits < 800 || audits > 1200 {
		t.Errorf("lib-bank audits %d of 100000, want about 1000", audits)
	}
	pg := newPipeGen(1, 0)
	var wb wireBatch
	ro := 0
	for i := 0; i < 10000; i++ {
		pg.next(&wb)
		if wb.readOnly() {
			ro++
		} else if wb.ops[14].delta+wb.ops[15].delta != 0 {
			t.Fatalf("INCR pair does not cancel: %+v %+v", wb.ops[14], wb.ops[15])
		}
	}
	if ro < 4700 || ro > 5300 {
		t.Errorf("wire-pipeline all-GET batches %d of 10000, want about half", ro)
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	fg, bg, pg, qg := newFig4Gen(1, 0), newBankGen(1, 0), newPointGen(1, 0), newPipeGen(1, 0)
	var wb wireBatch
	rec := newRecorder(1 << 16)
	rec.begin(time.Now(), 1, time.Hour, 0)
	tr := newTracer(time.Now(), 0, 1<<16)
	val := make([]byte, pipeValueSize)
	for name, fn := range map[string]func(){
		"generators": func() { fg.next(); bg.next(); pg.next(&wb); qg.next(&wb); fillValue(val, 7, 9) },
		"recorder":   func() { t0 := rec.now(); rec.tick(t0); rec.sample(rec.now() - t0); rec.commit(16) },
		"tracer":     func() { tr.end(tr.begin(spAttempt, -1, 1)) },
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s: %v allocations per iteration in steady state, want 0", name, n)
		}
	}
}

func TestSummarizeWindows(t *testing.T) {
	// Two workers, ten windows of 1 s. Worker 0 puts 100 samples of
	// (w+1) µs in window w; worker 1 commits ops and records nothing.
	d := 10 * time.Second
	recs := []*recorder{newRecorder(4096), newRecorder(16)}
	start := time.Now()
	for _, r := range recs {
		r.begin(start, 1, d, 0)
	}
	for w := 0; w < windows; w++ {
		at := int64(w)*int64(time.Second) + 1
		if !recs[0].tick(at) || !recs[1].tick(at) {
			t.Fatalf("window %d reported closed", w)
		}
		for i := 0; i < 100; i++ {
			recs[0].sample(int64(w+1) * 1000)
		}
		recs[0].commit(30)
		recs[1].commit(70)
	}
	if recs[0].tick(int64(d)) {
		t.Fatal("region still open at its end")
	}
	recs[1].fail(5)
	st := summarize(recs, d)
	if st.totalOps != 1000 || st.opsPerS != 100 {
		t.Errorf("totalOps=%d opsPerS=%v, want 1000 and 100", st.totalOps, st.opsPerS)
	}
	if st.samples != 1000 || st.minWindowSamples != 100 {
		t.Errorf("samples=%d minWindow=%d, want 1000 and 100", st.samples, st.minWindowSamples)
	}
	// Every per-window statistic is w+1 µs for w = 0..9; the median over the
	// windows is 5.5.
	if st.midus != 5.5 || st.p50us != 5.5 || st.p99us != 5.5 {
		t.Errorf("midus=%v p50us=%v p99us=%v, want 5.5 each (median over the windows)", st.midus, st.p50us, st.p99us)
	}
	// Two modes of equal weight: the trimmed mean lies between them, and a
	// tail sample on either side does not move it.
	if got := trimmedMean([]uint32{1, 10, 10, 10, 10, 20, 20, 20, 20, 4000}); got != 15 {
		t.Errorf("trimmedMean of two equal modes and two tails = %v, want 15", got)
	}
	if st.attempted != 1005 || st.failed != 5 {
		t.Errorf("attempted=%d failed=%d, want 1005 and 5", st.attempted, st.failed)
	}

	full := newRecorder(2)
	full.begin(start, 1, d, 0)
	for i := 0; i < 5; i++ {
		full.sample(1)
	}
	if len(full.lat) != 2 || full.dropped != 3 {
		t.Errorf("full recorder kept %d samples and dropped %d, want 2 and 3", len(full.lat), full.dropped)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spTxn, parent: -1, start: 100, end: 200},     // 0: root
		{name: spAttempt, parent: 0, start: 110, end: 150},  // 1: covers 40
		{name: spAttempt, parent: 0, start: 140, end: 170},  // 2: overlaps 1; adds 20
		{name: spAttempt, parent: 0, start: 190, end: 260},  // 3: clipped to the parent; adds 10
		{name: spCoreGet, parent: 1, start: 120, end: 130},  // 4: grandchild, counts against 1 only
		{name: spAttempt, parent: 0, start: 175, end: 0},    // 5: never closed; ignored
		{name: spTxn, parent: -1, start: 300, end: 0},       // 6: unclosed root
		{name: spAttempt, parent: 6, start: 310, end: 320},  // 7: child of an unclosed span
		{name: spCoreGet, parent: 1, start: 125, end: 135},  // 8: overlaps 4; adds 5
		{name: spCorePut, parent: 2, start: 100, end: 1000}, // 9: covers all of 2 after clipping
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 20 - 10, 40 - 10 - 5, 0, 70, 10, -1, -1, 10, 10, 900}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v\nwant        %v", self, want)
	}

	tr := newTracer(time.Now(), 0, 2)
	root := tr.begin(spTxn, -1, 1)
	kept := tr.begin(spAttempt, root, 1)
	lost := tr.begin(spAttempt, root, 1)
	tr.end(lost) // must be a no-op
	tr.end(kept)
	tr.end(root)
	if lost != -1 || tr.dropped != 1 || len(tr.spans) != 2 {
		t.Fatalf("full tracer: lost=%d dropped=%d spans=%d, want -1 1 2", lost, tr.dropped, len(tr.spans))
	}
	// The dropped span's time stays in its parent's self time.
	if s := selfTimes(tr.spans); s[0] != tr.spans[0].end-tr.spans[0].start-(tr.spans[1].end-tr.spans[1].start) {
		t.Errorf("self time with a dropped child = %d", s[0])
	}
	sums, counts := childSum(tr.spans, spTxn, spAttempt)
	if len(sums) != 1 || counts[0] != 1 {
		t.Errorf("childSum = %v %v, want one root with one child", sums, counts)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", endToEnd[0])
	}
}

func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var got contractFile
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := contract()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `benchmark contract`:\n file   %+v\n binary %+v", got, want)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 || len(want.Workloads) < 2 || len(want.Workloads) > 8 {
		t.Errorf("run_seconds %d, %d workloads", want.RunSeconds, len(want.Workloads))
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: bad name, or why longer than 200 characters (%d)", w.Name, len(w.Why))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		ta, tb int
		want   string
	}{
		{"same", steady, steady, 5, 5, within},
		{"slower", steady, []float64{80, 81, 79, 80, 82}, 5, 5, regressed},
		{"faster", steady, []float64{120, 121, 119, 120, 122}, 5, 5, within},
		{"wide", steady, []float64{60, 100, 140, 80, 120}, 5, 5, unresolved},
		{"noisy", steady[:2], steady, 5, 5, unresolved},
	} {
		if got := judge("w", d, tc.a, tc.b, tc.ta, tc.tb); got.verdict != tc.want {
			t.Errorf("%s: verdict %s (%s), want %s", tc.name, got.verdict, got.why, tc.want)
		}
	}
	lat := metricDef{Name: "txn_mid_us", Unit: "us", Better: lower, Bound: 0.10}
	if got := judge("w", lat, steady, []float64{120, 121, 119, 120, 122}, 5, 5); got.verdict != regressed {
		t.Errorf("slower latency: verdict %s, want regressed", got.verdict)
	}
}

// TestSmoke runs every workload, untraced and traced, for a moment with the
// oracles on, and checks that each pass reports exactly its metric table.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		if raceEnabled && (w.name == "lib-fig4" || w.name == "wire-pipeline") {
			// Under the race detector the snapshot map and the mvcc server do
			// not get through their set-up in minutes; the benchmark's own
			// goroutines are covered by the other two workloads.
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 200*time.Millisecond, traced, 1, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var got, want []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, d := range defs {
				want = append(want, d.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			// The workloads separate the layers: core spans only on
			// lib-fig4, server spans only on the wire workloads.
			core, srv := res.Metrics["core.op_ns.get"].Value > 0, res.Metrics["server.batch_rtt_us"].Value > 0
			if core != (w.name == "lib-fig4") || srv != (w.name == "wire-point" || w.name == "wire-pipeline") {
				t.Errorf("%s: core spans present=%v, server spans present=%v", w.name, core, srv)
			}
			if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
		}
	}
}
