package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"proust/internal/stm"
)

// instance is one constructed, populated copy of a workload's system.
type instance interface {
	// work runs worker id in a closed loop until rec closes the phase. tr is
	// nil unless the phase is traced.
	work(id int, rec *recorder, tr *tracer)
	system() *stm.STM
	// finish runs the end-of-run oracle, counting into rec.
	finish(rec *recorder)
	close() error
}

// workload is one fixed set of inputs. Later issues refer to these names.
type workload struct {
	name, why string
	warm      int                                 // warm-up iterations per worker; fixed work, part of setup_s
	new       func(traced bool) (instance, error) // traced: attach what only the traced pass needs
	// ladder replays this workload's op stream one layer lower each time
	// (traced pass only); probe is the time to spend per rung.
	ladder func(inst instance, seed uint64, probe time.Duration, m metricSet)
}

var workloads = []workload{
	{
		name: "lib-fig4",
		why:  "paper Figure-4 centre cell (16-op txns, 50% writes, 1024 keys, lazy/optimistic snapshot map on tl2): core+conc+conflict-abstraction refs do the work, server none",
		warm: fig4WarmTxns, new: newFig4, ladder: fig4Ladder,
	},
	{
		name: "lib-bank",
		why:  "Zipf transfers beside read-all audits on 1024 flat tl2 refs: stm begin/validate/lock/publish is nearly all the time, core/conc/server are bypassed; audits are an opacity check",
		warm: bankWarmTxns, new: newBank, ladder: bankLadder,
	},
	{
		name: "wire-point",
		why:  "one-op frames at depth 1 over loopback TCP (90% GET): parse, admission, hand-off, flush and syscalls dominate, the transaction is a few percent; the server layer's workload",
		warm: pointWarm, new: newWire(pointCfg), ladder: pointLadder,
	},
	{
		name: "wire-pipeline",
		why:  "16-op frames at depth 32 on mvcc over 262144 Zipf keys, half all-GET snapshots, half updates: per-frame cost is amortised, stm+predication+hashmap carry the time; working set beyond L2",
		warm: pipeWarm, new: newWire(pipeCfg), ladder: pipeLadder,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is one run of one workload, as stored in result files.
type runResult struct {
	Workload         string            `json:"workload"`
	Seed             uint64            `json:"seed"`
	Seconds          float64           `json:"seconds"`
	Traced           bool              `json:"traced"`
	SpinMops         [2]float64        `json:"env.spin_mops"`
	NoisyHost        bool              `json:"noisy_host"`
	Correct          bool              `json:"correct"`
	Attempted        uint64            `json:"attempted"`
	Failed           uint64            `json:"failed"`
	Samples          int               `json:"txn_samples"`
	MinWindowSamples int               `json:"min_window_samples"`
	DroppedSamples   uint64            `json:"dropped_samples"`
	SetupSeconds     []float64         `json:"setup_seconds"`
	Metrics          map[string]metric `json:"metrics"`
}

// runPhase runs every worker over inst until the phase closes: after d, or,
// with d == 0, after limit iterations each.
func runPhase(inst instance, recs []*recorder, trs []*tracer, seed uint64, d time.Duration, limit int) {
	start := time.Now()
	var wg sync.WaitGroup
	for id := range recs {
		recs[id].begin(start, seed, d, limit)
		var tr *tracer
		if trs != nil {
			tr = trs[id]
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			inst.work(id, recs[id], tr)
		}(id)
	}
	wg.Wait()
}

// phaseSeed gives every phase of a run its own op streams.
func phaseSeed(seed uint64, phase int) uint64 { return seed*1000003 + uint64(phase) }

// runWorkload sets w up, measures it for d and checks its outputs. An
// untraced run yields the end-to-end metrics; a traced run yields the
// per-layer ones (spans, counters, the layer ladder) and writes a Chrome
// trace under outDir. An untraced run sets up setups times.
func runWorkload(w workload, seed uint64, d time.Duration, traced bool, setups int, outDir string) (runResult, error) {
	res := runResult{Workload: w.name, Seed: seed, Seconds: d.Seconds(), Traced: traced}

	capSamples := int(d.Seconds()*500e3) + 4096
	recs := make([]*recorder, workers)
	for i := range recs {
		recs[i] = newRecorder(capSamples)
		defer recs[i].release()
	}
	tally := func() {
		for _, r := range recs {
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
	}

	// Set-up: construct, start, populate, then a fixed amount of warm-up
	// work (so lazy initialisation is paid here and a change that moves work
	// into set-up shows). Untraced runs repeat it and report the median.
	if traced {
		setups = 1
	}
	var inst instance
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, fmt.Errorf("%s: close: %w", w.name, err)
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.new(traced); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		runPhase(inst, recs, nil, phaseSeed(seed, k), 0, w.warm)
		res.SetupSeconds = append(res.SetupSeconds, time.Since(t0).Seconds())
		tally()
	}
	defer inst.close()

	m := metricSet{}
	var trs []*tracer
	refOps := 0.0
	if traced {
		// An untraced stretch on the same instance is the base of
		// trace.overhead_ratio.
		ref := d / 4
		runPhase(inst, recs, nil, phaseSeed(seed, 100), ref, 0)
		tally()
		refOps = summarize(recs, ref).opsPerS
		base := time.Now()
		for i := 0; i < workers; i++ {
			trs = append(trs, newTracer(base, i, traceCapSpans))
			defer trs[i].release()
		}
	}

	runtime.GC()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := inst.system().Stats()
	srv0 := readServerCounters(inst)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	runPhase(inst, recs, trs, phaseSeed(seed, 101), d, 0)
	cpu1, gc1 := cpuTime(), gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	st1 := inst.system().Stats()
	srv1 := readServerCounters(inst)
	tally()
	reg := summarize(recs, d)
	res.Samples, res.MinWindowSamples, res.DroppedSamples = reg.samples, reg.minWindowSamples, reg.dropped

	final := &recorder{} // the end-of-run oracle only counts
	inst.finish(final)
	res.Attempted += final.attempted
	res.Failed += final.failed

	runtime.GC() // twice: the first cycle only moves sync.Pool contents to the victim cache
	runtime.GC()
	runtime.ReadMemStats(&ms2)

	ops := float64(reg.totalOps)
	cpu := (cpu1 - cpu0).Seconds()
	if !traced {
		m["setup_s"] = median(append([]float64(nil), res.SetupSeconds...))
		m["ops_per_s"] = reg.opsPerS
		m["txn_mid_us"] = reg.midus
		m["txn_p99_us"] = reg.p99us
		m["cpu_us_per_op"] = cpu * 1e6 / ops
		m["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
		m["heap_live_mb"] = float64(ms2.HeapAlloc) / (1 << 20)
		res.Metrics = m.render(endToEnd)
	} else {
		m["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		m["txn_p50_us"] = reg.p50us
		m["txn_samples"] = float64(reg.samples)
		m["min_window_samples"] = float64(reg.minWindowSamples)
		m["proc.gc_cpu_share"] = (gc1 - gc0) / cpu
		m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		m["proc.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		m["trace.overhead_ratio"] = reg.opsPerS / refOps
		m["trace.clock_ns"] = clockCostNS()
		stmMetrics(m, inst.system(), st0, st1)
		serverMetrics(m, srv0, srv1, st1.MVCCSnapshotTxns-st0.MVCCSnapshotTxns)
		spanMetrics(m, trs)
		w.ladder(inst, seed, ladderProbe(d), m)
		if err := writeChromeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), trs); err != nil {
			return res, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
		res.Metrics = m.render(perLayer)
	}

	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// ladderProbe is the time each ladder rung measures for: a twentieth of the
// timed region, so a whole ladder stays shorter than the region itself.
func ladderProbe(d time.Duration) time.Duration {
	return min(max(d/20, 20*time.Millisecond), 2*time.Second)
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// histDeltaP50 is the median of the observations a duration histogram gained
// between two snapshots.
func histDeltaP50(a, b stm.DurationHistSnapshot) float64 {
	d := stm.DurationHistSnapshot{Buckets: append([]uint64(nil), b.Buckets...), Count: b.Count - a.Count, SampleEvery: b.SampleEvery}
	for i := range d.Buckets {
		if i < len(a.Buckets) {
			d.Buckets[i] -= a.Buckets[i]
		}
	}
	if d.Count == 0 {
		return 0
	}
	return float64(d.Quantile(0.5))
}

// stmMetrics derives the counter-based stm.* metrics from STM.Stats() deltas
// over the traced region.
func stmMetrics(m metricSet, s *stm.STM, a, b stm.StatsSnapshot) {
	starts, commits := b.Starts-a.Starts, b.Commits-a.Commits
	m["stm.commit_ratio"] = ratio(commits, starts)
	m["stm.abort_conflict_share"] = ratio(b.ConflictAborts-a.ConflictAborts, starts)
	m["stm.abort_validation_share"] = ratio(b.ValidationAborts-a.ValidationAborts, starts)
	m["stm.validation_p50_ns"] = histDeltaP50(a.ValidationTime, b.ValidationTime)
	m["stm.lock_hold_p50_ns"] = histDeltaP50(a.LockHold, b.LockHold)
	// Both are counted when a commit takes its write version, before its
	// validation can still fail, so the base is attempts, not commits.
	m["stm.cross_shard_share"] = ratio(b.CrossShardCommits-a.CrossShardCommits, starts)
	m["stm.group_commit_share"] = ratio(b.GroupCommits-a.GroupCommits, starts)
	checked, skipped := b.ValidationShardsChecked-a.ValidationShardsChecked, b.ValidationShardsSkipped-a.ValidationShardsSkipped
	m["stm.shards_skipped_share"] = ratio(skipped, checked+skipped)
	m["stm.mvcc_history_read_share"] = ratio(b.MVCCHistoryReads-a.MVCCHistoryReads, b.MVCCSnapshotReads-a.MVCCSnapshotReads)
	if t, ok := s.MVCCTelemetry(); ok {
		m["stm.mvcc_versions_live"] = float64(t.VersionsLive)
	}
}

// serverCounters is the server layer's own accounting: the request-outcome
// and burst/flush families of a registry attached in the traced pass only,
// plus the read-only routing count.
type serverCounters struct {
	ok, shed, deadline, errs uint64
	frames, bursts           uint64 // sum and count of proust_server_pipeline_depth
	flushBytes, flushes      uint64 // sum and count of proust_server_flush_batch_size
	roBatches                uint64
	present                  bool
}

func readServerCounters(inst instance) serverCounters {
	w, ok := inst.(*wire)
	if !ok || w.reg == nil {
		return serverCounters{}
	}
	c := serverCounters{present: true, roBatches: w.srv.ROBatches()}
	for _, fam := range w.reg.Snapshot() {
		for _, ms := range fam.Metrics {
			switch fam.Name {
			case "proust_server_requests_total":
				if ms.Count == nil {
					continue
				}
				switch ms.Labels["outcome"] {
				case "ok":
					c.ok = *ms.Count
				case "shed":
					c.shed = *ms.Count
				case "deadline":
					c.deadline = *ms.Count
				case "error":
					c.errs = *ms.Count
				}
			case "proust_server_pipeline_depth":
				if h := ms.Histogram; h != nil {
					c.frames, c.bursts = h.Sum, h.Count
				}
			case "proust_server_flush_batch_size":
				if h := ms.Histogram; h != nil {
					c.flushBytes, c.flushes = h.Sum, h.Count
				}
			}
		}
	}
	return c
}

func serverMetrics(m metricSet, a, b serverCounters, snapshotTxns uint64) {
	if !b.present {
		return
	}
	batches := (b.ok - a.ok) + (b.shed - a.shed) + (b.deadline - a.deadline) + (b.errs - a.errs)
	m["server.frames_per_read_burst"] = ratio(b.frames-a.frames, b.bursts-a.bursts)
	m["server.reply_bytes_per_flush"] = ratio(b.flushBytes-a.flushBytes, b.flushes-a.flushes)
	m["server.ro_routed_share"] = ratio(b.roBatches-a.roBatches, batches)
	m["server.shed_share"] = ratio(b.shed-a.shed, batches)
	m["server.deadline_share"] = ratio(b.deadline-a.deadline, batches)
	m["server.error_share"] = ratio(b.errs-a.errs, batches)
	m["stm.snapshot_txn_share"] = ratio(snapshotTxns, b.roBatches-a.roBatches)
}

// spanMetrics derives the span-based per-layer metrics. Every timing is the
// median over the traced transactions / bursts.
func spanMetrics(m metricSet, trs []*tracer) {
	var spans, dropped int
	var all []span // spans of all workers, parents re-based
	for _, t := range trs {
		off := int32(len(all))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			all = append(all, s)
		}
		spans += len(t.spans)
		dropped += int(t.dropped)
	}
	m["trace.spans"] = float64(spans)
	m["trace.dropped_spans"] = float64(dropped)
	self := selfTimes(all)
	us := func(ns float64) float64 { return ns / 1e3 }

	// The transaction as the STM sees it: lib workloads trace it directly,
	// wire workloads through the twin's txn_equiv.
	root, equivs := spTxn, durations(all, spTxnEquiv)
	if len(equivs) > 0 {
		root = spTxnEquiv
	}
	if txns := durations(all, root); len(txns) > 0 {
		bodies, attempts := childSum(all, root, spAttempt)
		var selfs []int64
		nAtt := 0
		for i, s := range all {
			if s.name == root && self[i] >= 0 {
				selfs = append(selfs, self[i])
			}
		}
		for _, n := range attempts {
			nAtt += n
		}
		m["stm.txn_us"] = us(p50ns(txns))
		m["stm.body_us"] = us(p50ns(bodies))
		m["stm.commit_self_us"] = us(p50ns(selfs))
		m["stm.attempts_per_txn"] = float64(nAtt) / float64(len(txns))
	}
	m["stm.ro_txn_us"] = us(p50ns(durations(all, spTxnRO)))
	m["stm.ref_get_ns"] = p50ns(durations(all, spRefGet))
	m["stm.ref_set_ns"] = p50ns(durations(all, spRefSet))
	m["core.op_ns.get"] = p50ns(durations(all, spCoreGet))
	m["core.op_ns.put"] = p50ns(durations(all, spCorePut))
	m["core.op_ns.remove"] = p50ns(durations(all, spCoreRemove))

	// Wire bursts: every cost is amortised per batch of the burst (a burst
	// has one encode span per batch).
	bursts := durations(all, spBatch)
	if len(bursts) == 0 {
		return
	}
	_, encodes := childSum(all, spBatch, spEncode)
	depth := int64(encodes[0])
	perBatch := func(child uint8) float64 {
		sums, _ := childSum(all, spBatch, child)
		for i := range sums {
			sums[i] /= depth
		}
		return us(p50ns(sums))
	}
	for i := range bursts {
		bursts[i] /= depth
	}
	rtt := append([]int64(nil), bursts...)
	m["server.batch_rtt_us"] = us(p50ns(bursts))
	m["server.client_encode_us"] = perBatch(spEncode)
	m["server.client_flush_us"] = perBatch(spFlush)
	m["server.reply_wait_us"] = perBatch(spReplyWait)
	m["server.client_decode_us"] = perBatch(spDecode)
	equiv := p50ns(equivs)
	m["server.txn_equiv_us"] = us(equiv)
	wireSelf := make([]int64, len(rtt))
	for i, r := range rtt {
		wireSelf[i] = r - int64(equiv)
	}
	m["server.wire_self_us"] = us(p50ns(wireSelf))
	if r := p50ns(rtt); r > 0 {
		m["server.wire_share"] = p50ns(wireSelf) / r
	}
}
