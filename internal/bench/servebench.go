package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"proust/internal/server"
	"proust/internal/stm"
)

// This file is the proust-serve load generator: closed-loop (a fixed number
// of connections each keeping a fixed pipeline depth outstanding — measures
// peak served throughput) and open-loop (batches dispatched on a fixed
// arrival schedule regardless of completions — measures latency under load
// and the overload/shedding contract). Latency is recorded from the batch's
// SCHEDULED time in open-loop mode, so queueing delay the server induces is
// charged to it (no coordinated omission).

// ServeBenchConfig parameterizes one serve-bench run.
type ServeBenchConfig struct {
	// Addr, when non-empty, targets an already-running proust-serve
	// instance; STM-side stats come back zero. When empty the bench runs
	// an in-process server on a loopback ephemeral port.
	Addr    string `json:"addr,omitempty"`
	Backend string `json:"backend"`
	Maps    string `json:"maps"` // "predication" (default) | "boosted"

	Conns    int `json:"conns"`
	Pipeline int `json:"pipeline"` // outstanding batches per conn (closed loop)

	// TotalBatches bounds a closed-loop run (split across conns).
	TotalBatches int `json:"total_batches"`
	// ArrivalRate > 0 selects open-loop mode: batches/sec across all
	// conns, for Duration.
	ArrivalRate float64       `json:"arrival_rate,omitempty"`
	Duration    time.Duration `json:"duration,omitempty"`

	// ROMix is the fraction of batches that are pure-GET (read-only on the
	// wire, snapshot-routed server-side when eligible).
	ROMix       float64 `json:"ro_mix"`
	OpsPerBatch int     `json:"ops_per_batch"`
	KeyRange    int     `json:"key_range"`
	ValueSize   int     `json:"value_size"`
	Seed        uint64  `json:"seed"`

	Inflight    int           `json:"inflight,omitempty"`     // server in-flight slots
	ShedWait    time.Duration `json:"shed_wait,omitempty"`    // server slot-wait before shedding (<0: never wait)
	ExecRate    float64       `json:"exec_rate,omitempty"`    // server admission budget, batches/sec
	TxnDeadline time.Duration `json:"txn_deadline,omitempty"` // server per-batch deadline
}

// DefaultServeBench is the baseline closed-loop configuration.
func DefaultServeBench() ServeBenchConfig {
	return ServeBenchConfig{
		Backend:      "tl2",
		Conns:        4,
		Pipeline:     32,
		TotalBatches: 40000,
		ROMix:        0.5,
		OpsPerBatch:  4,
		KeyRange:     4096,
		ValueSize:    16,
		Seed:         42,
		Duration:     2 * time.Second,
	}
}

// ServeResult is one run's measurements. Latency percentiles are in
// microseconds, measured client-side per batch (send→reply in closed loop,
// schedule→reply in open loop).
type ServeResult struct {
	Mode        string  `json:"mode"` // "closed" | "open"
	Backend     string  `json:"backend"`
	Maps        string  `json:"maps"`
	Conns       int     `json:"conns"`
	Pipeline    int     `json:"pipeline"`
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	ROMix       float64 `json:"ro_mix"`
	OpsPerBatch int     `json:"ops_per_batch"`

	Batches    uint64  `json:"batches"`
	OK         uint64  `json:"ok"`
	Shed       uint64  `json:"shed"`
	Deadline   uint64  `json:"deadline"`
	Errors     uint64  `json:"errors"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Throughput counts committed batches/sec; OpsPerSec multiplies by
	// batch width.
	Throughput float64 `json:"throughput_batches_per_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`

	P50us  float64 `json:"p50_us"`
	P95us  float64 `json:"p95_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`

	// Server/STM-side evidence (zero when targeting an external Addr).
	ROBatches        uint64 `json:"ro_batches"`
	StmCommits       uint64 `json:"stm_commits"`
	StmAborts        uint64 `json:"stm_aborts"`
	MVCCSnapshotTxns uint64 `json:"mvcc_snapshot_txns"`
}

// connStats is one load connection's tally.
type connStats struct {
	ok, shed, deadline, errs uint64
	lat                      []int64 // nanoseconds
}

// RunServeBench executes one serve-bench run per cfg.
func RunServeBench(cfg ServeBenchConfig) (ServeResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	if cfg.OpsPerBatch <= 0 {
		cfg.OpsPerBatch = 1
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 16
	}
	if cfg.Backend == "" {
		cfg.Backend = "tl2"
	}

	addr := cfg.Addr
	var srv *server.Server
	var sys *stm.STM
	if addr == "" {
		sys = stm.New(stm.WithBackend(cfg.Backend))
		var err error
		srv, err = server.New(server.Config{
			System:      sys,
			Maps:        cfg.Maps,
			Inflight:    cfg.Inflight,
			ShedWait:    cfg.ShedWait,
			ExecRate:    cfg.ExecRate,
			TxnDeadline: cfg.TxnDeadline,
		})
		if err != nil {
			sys.Close()
			return ServeResult{}, err
		}
		ln, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			sys.Close()
			return ServeResult{}, err
		}
		go srv.Serve(ln)
		addr = ln.Addr().String()
		defer func() {
			srv.Close()
			sys.Close()
		}()
	}

	// Prepopulate the key range so GETs hit and SETs overwrite.
	if err := populate(addr, cfg); err != nil {
		return ServeResult{}, err
	}

	stats := make([]connStats, cfg.Conns)
	var wg sync.WaitGroup
	mode := "closed"
	start := time.Now()
	if cfg.ArrivalRate > 0 {
		mode = "open"
		dur := cfg.Duration
		if dur <= 0 {
			dur = 2 * time.Second
		}
		for i := 0; i < cfg.Conns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				openLoopConn(addr, cfg, i, dur, &stats[i])
			}(i)
		}
	} else {
		per := cfg.TotalBatches / cfg.Conns
		if per <= 0 {
			per = 1
		}
		for i := 0; i < cfg.Conns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				closedLoopConn(addr, cfg, i, per, &stats[i])
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := ServeResult{
		Mode:        mode,
		Backend:     cfg.Backend,
		Maps:        mapsName(cfg.Maps),
		Conns:       cfg.Conns,
		Pipeline:    cfg.Pipeline,
		ArrivalRate: cfg.ArrivalRate,
		ROMix:       cfg.ROMix,
		OpsPerBatch: cfg.OpsPerBatch,
		ElapsedSec:  elapsed.Seconds(),
	}
	var all []int64
	for i := range stats {
		res.OK += stats[i].ok
		res.Shed += stats[i].shed
		res.Deadline += stats[i].deadline
		res.Errors += stats[i].errs
		all = append(all, stats[i].lat...)
	}
	res.Batches = res.OK + res.Shed + res.Deadline + res.Errors
	if elapsed > 0 {
		res.Throughput = float64(res.OK) / elapsed.Seconds()
		res.OpsPerSec = res.Throughput * float64(cfg.OpsPerBatch)
	}
	res.P50us, res.P95us, res.P99us, res.P999us = percentiles(all)
	if srv != nil {
		res.ROBatches = srv.ROBatches()
		st := sys.Stats()
		res.StmCommits = st.Commits
		res.StmAborts = st.Aborts
		res.MVCCSnapshotTxns = st.MVCCSnapshotTxns
	}
	return res, nil
}

func mapsName(m string) string {
	if m == "" {
		return "predication"
	}
	return m
}

// populate SETs every key once so the measured phase runs against a warm
// keyspace (first-touch predicate allocation happens here, not on the
// clock).
func populate(addr string, cfg ServeBenchConfig) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	val := make([]byte, cfg.ValueSize)
	var b server.Batch
	var r server.Reply
	const width = 64
	for k := 0; k < cfg.KeyRange; k += width {
		b.Reset()
		for j := k; j < k+width && j < cfg.KeyRange; j++ {
			b.Set("kv", uint64(j), val)
		}
		if err := c.Do(&b, &r); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		if !r.OK() {
			return fmt.Errorf("populate: status %d %s", r.Status, r.Msg)
		}
	}
	return nil
}

// buildBatch fills b with one workload batch; ro selects the pure-GET shape.
func buildBatch(b *server.Batch, cfg ServeBenchConfig, rng *uint64, ro bool, val []byte) {
	b.Reset()
	for i := 0; i < cfg.OpsPerBatch; i++ {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		k := *rng % uint64(cfg.KeyRange)
		if ro || i%2 == 1 {
			b.Get("kv", k)
		} else {
			b.Set("kv", k, val)
		}
	}
}

// tally classifies one reply.
func tally(st *connStats, r *server.Reply, lat int64) {
	st.lat = append(st.lat, lat)
	switch r.Status {
	case server.StatusOK:
		st.ok++
	case server.StatusShed:
		st.shed++
	case server.StatusDeadline:
		st.deadline++
	default:
		st.errs++
	}
}

// nextRO draws the batch's read-only coin from the workload rng.
func nextRO(rng *uint64, mix float64) bool {
	if mix <= 0 {
		return false
	}
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	return float64(*rng%10000) < mix*10000
}

// closedLoopConn runs count batches in bursts of cfg.Pipeline: send the
// burst, flush once (one syscall per burst), read the burst's replies, and
// repeat. Depth 1 degenerates to the one-request-per-RTT baseline. Send
// timestamps ride a FIFO slice (replies arrive in order).
func closedLoopConn(addr string, cfg ServeBenchConfig, id, count int, st *connStats) {
	c, err := server.Dial(addr)
	if err != nil {
		st.errs++
		return
	}
	defer c.Close()
	rng := cfg.Seed + uint64(id)*2654435761 + 1
	val := make([]byte, cfg.ValueSize)
	st.lat = make([]int64, 0, count)
	sendTS := make([]int64, 0, cfg.Pipeline)
	var b server.Batch
	var r server.Reply

	done := 0
	for done < count {
		burst := cfg.Pipeline
		if count-done < burst {
			burst = count - done
		}
		sendTS = sendTS[:0]
		for i := 0; i < burst; i++ {
			buildBatch(&b, cfg, &rng, nextRO(&rng, cfg.ROMix), val)
			c.Send(&b)
			sendTS = append(sendTS, time.Now().UnixNano())
		}
		if err := c.Flush(); err != nil {
			st.errs++
			return
		}
		for i := 0; i < burst; i++ {
			if err := c.ReadReply(&r); err != nil {
				st.errs++
				return
			}
			tally(st, &r, time.Now().UnixNano()-sendTS[i])
		}
		done += burst
	}
}

// openLoopConn dispatches batches on a fixed schedule for dur, reading
// replies concurrently. Latency is measured from the scheduled send time.
func openLoopConn(addr string, cfg ServeBenchConfig, id int, dur time.Duration, st *connStats) {
	c, err := server.Dial(addr)
	if err != nil {
		st.errs++
		return
	}
	defer c.Close()
	interval := time.Duration(float64(time.Second) * float64(cfg.Conns) / cfg.ArrivalRate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	rng := cfg.Seed + uint64(id)*2654435761 + 1
	val := make([]byte, cfg.ValueSize)

	type stamp struct{ sched int64 }
	pending := make(chan stamp, 1<<16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var r server.Reply
		for s := range pending {
			if err := c.ReadReply(&r); err != nil {
				st.errs++
				return
			}
			tally(st, &r, time.Now().UnixNano()-s.sched)
		}
	}()

	var b server.Batch
	startT := time.Now()
	deadline := startT.Add(dur)
	next := startT
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			now = time.Now()
		}
		// Catch-up batching: send every batch whose scheduled time has
		// arrived, then flush once. When the sender is on schedule this is
		// one batch per wake; when it has fallen behind (or the rate is
		// high) the chunk amortizes the write syscall the same way server
		// pipelining amortizes the read — without it the per-send flush
		// costs more CPU than the batches being measured.
		sent := 0
		for !next.After(now) && sent < 256 && next.Before(deadline) {
			buildBatch(&b, cfg, &rng, nextRO(&rng, cfg.ROMix), val)
			c.Send(&b)
			select {
			case pending <- stamp{sched: next.UnixNano()}:
			default:
				// Reader fell fatally behind; count and move on.
				st.errs++
			}
			next = next.Add(interval)
			sent++
		}
		if sent == 0 {
			continue
		}
		if err := c.Flush(); err != nil {
			st.errs++
			break
		}
	}
	close(pending)
	<-done
}

// percentiles returns p50/p95/p99/p99.9 in microseconds.
func percentiles(lat []int64) (p50, p95, p99, p999 float64) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i]) / 1e3
	}
	return at(0.50), at(0.95), at(0.99), at(0.999)
}
