// Package report is the abort-forensics analyzer behind cmd/proust-report: it
// ingests a flight-recorder dump (JSON lines of stm.TraceEvent, optionally
// interleaved with stm.PhaseSample lines) and a metrics snapshot (the JSON
// form of the obs registry), and distills the post-mortem a human reaches for
// after a contended run — which keys conflict, which phase the aborts die in,
// how unevenly the timebase shards are loaded, and what to tune first.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"proust/internal/obs"
	"proust/internal/stm"
)

// Dump is a parsed flight dump: lifecycle events and phase samples, in file
// order.
type Dump struct {
	Events  []stm.TraceEvent
	Samples []stm.PhaseSample
}

// dumpLine is the sniffing envelope: a phase-sample line carries a "phases"
// array, a lifecycle line does not.
type dumpLine struct {
	Phases *json.RawMessage `json:"phases"`
}

// ParseDump reads a JSONL flight dump, sorting each line into events or
// samples by shape. Blank lines are skipped; a malformed line fails the parse
// with its line number.
func ParseDump(r io.Reader) (Dump, error) {
	var d Dump
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sniff dumpLine
		if err := json.Unmarshal(line, &sniff); err != nil {
			return d, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if sniff.Phases != nil {
			var ps stm.PhaseSample
			if err := json.Unmarshal(line, &ps); err != nil {
				return d, fmt.Errorf("line %d: %w", lineNo, err)
			}
			d.Samples = append(d.Samples, ps)
		} else {
			var ev stm.TraceEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return d, fmt.Errorf("line %d: %w", lineNo, err)
			}
			d.Events = append(d.Events, ev)
		}
	}
	return d, sc.Err()
}

// ParseMetrics reads a JSON metrics snapshot (the /metrics.json payload, an
// array of family snapshots).
func ParseMetrics(r io.Reader) ([]obs.FamilySnapshot, error) {
	var fams []obs.FamilySnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&fams); err != nil {
		return nil, err
	}
	return fams, nil
}

// KeyConflict is one entry of the top-conflicting-keys table: an abstract key
// (the hash recorded by Txn.NoteOp) and how many abort events carried it.
type KeyConflict struct {
	Key    uint64 `json:"key"`
	Op     string `json:"op"`
	Aborts uint64 `json:"aborts"`
}

// ShardSummary aggregates one backend's timebase heat from the metrics
// snapshot.
type ShardSummary struct {
	Shards          int     `json:"shards"`
	HottestShard    int     `json:"hottest_shard"`
	HottestClock    uint64  `json:"hottest_clock"`
	TotalClock      uint64  `json:"total_clock"`
	ClockGini       float64 `json:"clock_gini"`
	EpochExtensions uint64  `json:"epoch_extensions"`
}

// MVCCSummary aggregates one backend's multi-version telemetry from the
// metrics snapshot (mvcc and chaos-mvcc instances only).
type MVCCSummary struct {
	SnapshotReads uint64 `json:"snapshot_reads"`
	VersionsLive  int64  `json:"versions_live"`
	WatermarkLag  int64  `json:"watermark_lag"`
}

// ServerSummary aggregates proust-serve front-end heat from the metrics
// snapshot (present only when a server registered its families).
type ServerSummary struct {
	Connections    int64   `json:"connections"`
	RequestsOK     uint64  `json:"requests_ok"`
	RequestsShed   uint64  `json:"requests_shed"`
	RequestsDeadln uint64  `json:"requests_deadline"`
	RequestsError  uint64  `json:"requests_error"`
	ROBatches      uint64  `json:"ro_batches"`
	ShedRatio      float64 `json:"shed_ratio"`
	// MeanPipelineDepth is frames per read burst; MeanFlushBytes is reply
	// bytes per writer syscall — together they say how well the wire is
	// amortizing syscalls.
	MeanPipelineDepth float64 `json:"mean_pipeline_depth"`
	MeanFlushBytes    float64 `json:"mean_flush_bytes"`
}

// Analysis is the full forensics result.
type Analysis struct {
	Events  int `json:"events"`
	Samples int `json:"samples"`
	Commits uint64
	Aborts  uint64
	// AbortsByCause counts abort events by cause name.
	AbortsByCause map[string]uint64
	// AbortPhase maps cause name → phase name → aborted sampled attempts
	// whose largest time share died in that phase.
	AbortPhase map[string]map[string]uint64
	// PhaseTotalsNS sums sampled time per phase name across all samples.
	PhaseTotalsNS map[string]int64
	// TopKeys ranks abstract keys by the abort events that carried them.
	TopKeys []KeyConflict
	// ShardsByBackend summarizes timebase heat per backend (metrics input).
	ShardsByBackend map[string]ShardSummary
	// MVCCByBackend summarizes multi-version telemetry per backend
	// (metrics input; empty unless an mvcc instance was scraped).
	MVCCByBackend map[string]MVCCSummary
	// Server summarizes proust-serve front-end heat (metrics input; nil
	// unless proust_server_* families were scraped).
	Server *ServerSummary `json:"server,omitempty"`
	// Hints are the rule-based "tune this first" suggestions.
	Hints []string
}

// Analyze distills a dump and an optional metrics snapshot (fams may be nil).
func Analyze(d Dump, fams []obs.FamilySnapshot, topN int) Analysis {
	if topN <= 0 {
		topN = 10
	}
	a := Analysis{
		Events:          len(d.Events),
		Samples:         len(d.Samples),
		AbortsByCause:   map[string]uint64{},
		AbortPhase:      map[string]map[string]uint64{},
		PhaseTotalsNS:   map[string]int64{},
		ShardsByBackend: map[string]ShardSummary{},
		MVCCByBackend:   map[string]MVCCSummary{},
	}

	type keyOp struct {
		key uint64
		op  string
	}
	keyAborts := map[keyOp]uint64{}
	for _, ev := range d.Events {
		switch ev.Kind {
		case stm.TraceCommit:
			a.Commits++
		case stm.TraceAbort:
			a.Aborts++
			a.AbortsByCause[ev.Cause.String()]++
			for _, op := range ev.Ops {
				keyAborts[keyOp{op.Key, op.Op}]++
			}
		}
	}
	for ko, n := range keyAborts {
		a.TopKeys = append(a.TopKeys, KeyConflict{Key: ko.key, Op: ko.op, Aborts: n})
	}
	sort.Slice(a.TopKeys, func(i, j int) bool {
		if a.TopKeys[i].Aborts != a.TopKeys[j].Aborts {
			return a.TopKeys[i].Aborts > a.TopKeys[j].Aborts
		}
		return a.TopKeys[i].Key < a.TopKeys[j].Key
	})
	if len(a.TopKeys) > topN {
		a.TopKeys = a.TopKeys[:topN]
	}

	for _, ps := range d.Samples {
		for i, ns := range ps.PhaseNS {
			a.PhaseTotalsNS[stm.Phase(i).String()] += ns
		}
		if ps.Kind != stm.TraceAbort {
			continue
		}
		dom, domNS := 0, int64(-1)
		for i, ns := range ps.PhaseNS {
			if ns > domNS {
				dom, domNS = i, ns
			}
		}
		cause := ps.Cause.String()
		if a.AbortPhase[cause] == nil {
			a.AbortPhase[cause] = map[string]uint64{}
		}
		a.AbortPhase[cause][stm.Phase(dom).String()]++
	}

	a.summarizeShards(fams)
	a.summarizeMVCC(fams)
	a.summarizeServer(fams)
	a.hints()
	return a
}

// metric lookup helpers over the family snapshot list.

func findFamily(fams []obs.FamilySnapshot, name string) *obs.FamilySnapshot {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

func counterBy(f *obs.FamilySnapshot, want map[string]string) (uint64, bool) {
	if f == nil {
		return 0, false
	}
	for _, m := range f.Metrics {
		ok := true
		for k, v := range want {
			if m.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok && m.Count != nil {
			return *m.Count, true
		}
	}
	return 0, false
}

func (a *Analysis) summarizeShards(fams []obs.FamilySnapshot) {
	clockF := findFamily(fams, "proust_stm_shard_clock")
	if clockF == nil {
		return
	}
	type shardRow struct {
		shard int
		clock uint64
	}
	byBackend := map[string][]shardRow{}
	for _, m := range clockF.Metrics {
		if m.Count == nil {
			continue
		}
		sh, err := strconv.Atoi(m.Labels["shard"])
		if err != nil {
			continue
		}
		b := m.Labels["backend"]
		byBackend[b] = append(byBackend[b], shardRow{shard: sh, clock: *m.Count})
	}
	epochExtF := findFamily(fams, "proust_stm_epoch_extensions_total")
	for backend, rows := range byBackend {
		s := ShardSummary{Shards: len(rows)}
		clocks := make([]uint64, 0, len(rows))
		for _, r := range rows {
			clocks = append(clocks, r.clock)
			s.TotalClock += r.clock
			if r.clock > s.HottestClock {
				s.HottestClock, s.HottestShard = r.clock, r.shard
			}
		}
		s.ClockGini = obs.Gini(clocks)
		s.EpochExtensions, _ = counterBy(epochExtF, map[string]string{"backend": backend})
		a.ShardsByBackend[backend] = s
	}
}

func gaugeBy(f *obs.FamilySnapshot, want map[string]string) (int64, bool) {
	if f == nil {
		return 0, false
	}
	for _, m := range f.Metrics {
		ok := true
		for k, v := range want {
			if m.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok && m.Value != nil {
			return *m.Value, true
		}
	}
	return 0, false
}

func (a *Analysis) summarizeMVCC(fams []obs.FamilySnapshot) {
	readsF := findFamily(fams, "proust_stm_mvcc_snapshot_reads_total")
	liveF := findFamily(fams, "proust_stm_mvcc_versions_live")
	lagF := findFamily(fams, "proust_stm_mvcc_watermark_lag")
	if readsF == nil && liveF == nil && lagF == nil {
		return
	}
	backends := map[string]struct{}{}
	for _, f := range []*obs.FamilySnapshot{readsF, liveF, lagF} {
		if f == nil {
			continue
		}
		for _, m := range f.Metrics {
			if b := m.Labels["backend"]; b != "" {
				backends[b] = struct{}{}
			}
		}
	}
	for b := range backends {
		want := map[string]string{"backend": b}
		var s MVCCSummary
		s.SnapshotReads, _ = counterBy(readsF, want)
		s.VersionsLive, _ = gaugeBy(liveF, want)
		s.WatermarkLag, _ = gaugeBy(lagF, want)
		a.MVCCByBackend[b] = s
	}
}

func (a *Analysis) summarizeServer(fams []obs.FamilySnapshot) {
	reqF := findFamily(fams, "proust_server_requests_total")
	connF := findFamily(fams, "proust_server_connections")
	roF := findFamily(fams, "proust_server_ro_batches_total")
	depthF := findFamily(fams, "proust_server_pipeline_depth")
	flushF := findFamily(fams, "proust_server_flush_batch_size")
	if reqF == nil && connF == nil && roF == nil && depthF == nil && flushF == nil {
		return
	}
	s := &ServerSummary{}
	s.Connections, _ = gaugeBy(connF, nil)
	s.RequestsOK, _ = counterBy(reqF, map[string]string{"outcome": "ok"})
	s.RequestsShed, _ = counterBy(reqF, map[string]string{"outcome": "shed"})
	s.RequestsDeadln, _ = counterBy(reqF, map[string]string{"outcome": "deadline"})
	s.RequestsError, _ = counterBy(reqF, map[string]string{"outcome": "error"})
	s.ROBatches, _ = counterBy(roF, nil)
	total := s.RequestsOK + s.RequestsShed + s.RequestsDeadln + s.RequestsError
	s.ShedRatio = ratio(s.RequestsShed, total)
	s.MeanPipelineDepth = histMean(depthF)
	s.MeanFlushBytes = histMean(flushF)
	a.Server = s
}

// histMean averages a histogram family's samples across its children.
func histMean(f *obs.FamilySnapshot) float64 {
	if f == nil {
		return 0
	}
	var sum, count uint64
	for _, m := range f.Metrics {
		if m.Histogram != nil {
			sum += m.Histogram.Sum
			count += m.Histogram.Count
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// ratio returns part/whole, and 0 when whole is zero. Every percentage or
// ratio the report emits must come through ratio/pct: a section fed from an
// empty dump has zero-count denominators, and a bare division would put
// NaN/+Inf into the text output and make encoding/json reject the whole
// Analysis (json.Encode fails on non-finite floats).
func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// pct is ratio scaled to a percentage.
func pct(part, whole uint64) float64 { return 100 * ratio(part, whole) }

// hints derives the rule-based tuning suggestions from the aggregates.
func (a *Analysis) hints() {
	total := a.Commits + a.Aborts
	if total > 0 && a.Aborts*5 > total { // >20% of events are aborts
		cause, n := "", uint64(0)
		for c, v := range a.AbortsByCause {
			if v > n {
				cause, n = c, v
			}
		}
		switch cause {
		case "validation":
			a.Hints = append(a.Hints,
				"validation aborts dominate: reads are going stale under writers — "+
					"shrink transaction footprints or split hot keys")
		case "lock-conflict":
			a.Hints = append(a.Hints,
				"lock-conflict aborts dominate: writers collide on the same refs — "+
					"consider the eager (visible-reader) backend or a blunter "+
					"contention manager to serialize the hot set")
		case "doomed":
			a.Hints = append(a.Hints,
				"doomed aborts dominate: the contention manager is killing "+
					"transactions aggressively — check arbitration policy fit")
		}
	}
	for backend, s := range a.ShardsByBackend {
		if s.EpochExtensions > 0 && s.EpochExtensions*10 > s.TotalClock && s.TotalClock > 0 {
			a.Hints = append(a.Hints, fmt.Sprintf(
				"%s: the epoch fence forced %d extensions against %d commits — "+
					"cross-shard writers are hot; co-locate their write sets in "+
					"one id block", backend, s.EpochExtensions, s.TotalClock))
		}
	}
	for backend, m := range a.MVCCByBackend {
		// A lag of a few clock ticks is the steady-state cost of in-flight
		// snapshots; a lag in the hundreds means one long-lived reader is
		// pinning every version chain above its snapshot.
		if m.WatermarkLag > 256 {
			a.Hints = append(a.Hints, fmt.Sprintf(
				"%s: the GC watermark lags the commit clock by %d ticks "+
					"(%d version nodes live) — a long-running WithReadOnly "+
					"snapshot is pinning history; split long scans into shorter "+
					"snapshots or raise WithVersionCap to absorb the backlog",
				backend, m.WatermarkLag, m.VersionsLive))
		}
	}
	if s := a.Server; s != nil {
		if s.ShedRatio > 0.2 {
			a.Hints = append(a.Hints, fmt.Sprintf(
				"server: %.0f%% of batches were shed — offered load is far over "+
					"the admission budget; raise ExecRate/Inflight if the STM has "+
					"headroom, otherwise add capacity or trim batch sizes",
				100*s.ShedRatio))
		}
		if s.MeanPipelineDepth > 0 && s.MeanPipelineDepth < 2 {
			a.Hints = append(a.Hints,
				"server: clients average under 2 frames per read burst — they are "+
					"not pipelining, so every batch pays a full RTT plus a syscall "+
					"each way; batch more requests per flush client-side")
		}
	}
	if len(a.Hints) == 0 {
		a.Hints = append(a.Hints, "nothing stands out: abort rate, epoch "+
			"fence and snapshot retention all look healthy")
	}
}

// WriteText renders the analysis as the human-facing report.
func (a Analysis) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "proust abort forensics\n")
	fmt.Fprintf(bw, "  events: %d lifecycle, %d phase samples\n", a.Events, a.Samples)
	fmt.Fprintf(bw, "  commits: %d  aborts: %d (%.1f%% of events)\n",
		a.Commits, a.Aborts, pct(a.Aborts, a.Commits+a.Aborts))

	if len(a.AbortsByCause) > 0 {
		fmt.Fprintf(bw, "\naborts by cause:\n")
		for _, c := range sortedKeysByCount(a.AbortsByCause) {
			fmt.Fprintf(bw, "  %-14s %d\n", c, a.AbortsByCause[c])
		}
	}
	if len(a.AbortPhase) > 0 {
		fmt.Fprintf(bw, "\nabort phase breakdown (dominant phase of sampled aborted attempts):\n")
		causes := make([]string, 0, len(a.AbortPhase))
		for c := range a.AbortPhase {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(bw, "  %s:", c)
			for _, ph := range sortedKeysByCount(a.AbortPhase[c]) {
				fmt.Fprintf(bw, " %s=%d", ph, a.AbortPhase[c][ph])
			}
			fmt.Fprintln(bw)
		}
	}
	if len(a.TopKeys) > 0 {
		fmt.Fprintf(bw, "\ntop conflicting keys (by abort events carrying them):\n")
		for _, k := range a.TopKeys {
			fmt.Fprintf(bw, "  key %#016x  op %-8s aborts %d\n", k.Key, k.Op, k.Aborts)
		}
	}
	if len(a.ShardsByBackend) > 0 {
		backends := make([]string, 0, len(a.ShardsByBackend))
		for b := range a.ShardsByBackend {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		fmt.Fprintf(bw, "\nshard heat:\n")
		for _, b := range backends {
			s := a.ShardsByBackend[b]
			fmt.Fprintf(bw, "  %s: %d shards, hottest shard %d (clock %d of %d), Gini %.2f\n",
				b, s.Shards, s.HottestShard, s.HottestClock, s.TotalClock, s.ClockGini)
			if s.EpochExtensions > 0 {
				fmt.Fprintf(bw, "    epoch fence: %d forced extensions\n", s.EpochExtensions)
			}
		}
	}
	if len(a.MVCCByBackend) > 0 {
		backends := make([]string, 0, len(a.MVCCByBackend))
		for b := range a.MVCCByBackend {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		fmt.Fprintf(bw, "\nmulti-version (mvcc):\n")
		for _, b := range backends {
			m := a.MVCCByBackend[b]
			fmt.Fprintf(bw, "  %s: %d snapshot reads, %d versions live, watermark lag %d\n",
				b, m.SnapshotReads, m.VersionsLive, m.WatermarkLag)
		}
	}
	if s := a.Server; s != nil {
		total := s.RequestsOK + s.RequestsShed + s.RequestsDeadln + s.RequestsError
		fmt.Fprintf(bw, "\nserver front-end:\n")
		fmt.Fprintf(bw, "  %d open connections, %d batches (%d ok, %d shed, %d deadline, %d error)\n",
			s.Connections, total, s.RequestsOK, s.RequestsShed, s.RequestsDeadln, s.RequestsError)
		fmt.Fprintf(bw, "  %d read-only batches snapshot-routed (%.1f%% of ok)\n",
			s.ROBatches, pct(s.ROBatches, s.RequestsOK))
		fmt.Fprintf(bw, "  pipelining: %.1f frames/read burst, %.0f reply bytes/flush syscall\n",
			s.MeanPipelineDepth, s.MeanFlushBytes)
	}
	fmt.Fprintf(bw, "\ntune this:\n")
	for _, h := range a.Hints {
		fmt.Fprintf(bw, "  - %s\n", h)
	}
	return bw.Flush()
}

// sortedKeysByCount orders map keys by descending count, then name.
func sortedKeysByCount(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
