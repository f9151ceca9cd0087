package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"proust/internal/bench"
)

// runServe executes the proust-serve load sweep (internal/bench/servebench.go):
// a closed-loop row per pipeline depth (depth 1 is the one-request-per-RTT
// baseline), an open-loop row per arrival rate, and — when the bench runs its
// own in-process server — the mvcc 95/5 read-mix evidence row showing
// wire-issued read-only batches commit as abort-free snapshot transactions.
// -json writes the results (bench/history/BENCH_serve.json is one such run).
func runServe(addr, policy, maps, connsFlag, pipelineFlag, rateFlag string,
	roMix float64, ops int, duration time.Duration,
	jsonPath, csvPath string) error {

	cfg := bench.DefaultServeBench()
	cfg.Addr = addr
	cfg.Maps = maps
	if policy != "" {
		cfg.Backend = policy
	}
	if ops > 0 {
		cfg.TotalBatches = ops
	}
	if duration > 0 {
		cfg.Duration = duration
	}
	if roMix >= 0 {
		cfg.ROMix = roMix
	}
	if connsFlag != "" {
		n, err := strconv.Atoi(strings.TrimSpace(connsFlag))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -conns %q", connsFlag)
		}
		cfg.Conns = n
	}
	pipelines, err := intList(pipelineFlag, []int{1, 8, 32})
	if err != nil {
		return fmt.Errorf("bad -pipeline: %w", err)
	}
	rates, err := floatList(rateFlag, nil)
	if err != nil {
		return fmt.Errorf("bad -arrival-rate: %w", err)
	}

	mapsLabel := cfg.Maps
	if mapsLabel == "" {
		mapsLabel = "predication"
	}
	fmt.Printf("# proust-bench: experiment=serve GOMAXPROCS=%d backend=%s maps=%s conns=%d batches=%d opsPerBatch=%d roMix=%.2f\n\n",
		runtime.GOMAXPROCS(0), cfg.Backend, mapsLabel, cfg.Conns, cfg.TotalBatches, cfg.OpsPerBatch, cfg.ROMix)

	var results []bench.ServeResult
	emit := func(res bench.ServeResult) {
		results = append(results, res)
		switch res.Mode {
		case "closed":
			fmt.Printf("closed  %-12s depth=%-3d %10.0f batches/sec  p50=%7.1fus p99=%8.1fus  shed=%d aborts=%d\n",
				res.Backend, res.Pipeline, res.Throughput, res.P50us, res.P99us, res.Shed, res.StmAborts)
		case "open":
			fmt.Printf("open    %-12s rate=%-8.0f %8.0f batches/sec  p50=%7.1fus p99=%8.1fus p99.9=%8.1fus  shed=%d deadline=%d\n",
				res.Backend, res.ArrivalRate, res.Throughput, res.P50us, res.P99us, res.P999us, res.Shed, res.Deadline)
		}
	}

	for _, depth := range pipelines {
		c := cfg
		c.Pipeline = depth
		c.ArrivalRate = 0
		res, err := bench.RunServeBench(c)
		if err != nil {
			return err
		}
		emit(res)
	}
	for _, rate := range rates {
		c := cfg
		c.ArrivalRate = rate
		res, err := bench.RunServeBench(c)
		if err != nil {
			return err
		}
		emit(res)
	}

	// Overload evidence row: calibrate closed-loop capacity on a txn-heavy
	// batch shape (64 ops/batch, so the transaction — not framing or client
	// work — dominates service time), then offer 1.2x that rate open-loop
	// against a server whose ExecRate admission budget is 85% of capacity.
	// The token bucket must shed the excess at parse speed so reply latency
	// keeps a bounded steady state instead of collapsing into an
	// ever-growing backlog. In-process only: the calibration needs to
	// restart the server with a different admission budget.
	if addr == "" {
		cal := cfg
		cal.ArrivalRate = 0
		cal.Pipeline = 32
		cal.OpsPerBatch = 64
		cal.TotalBatches = cfg.TotalBatches / 4
		if cal.TotalBatches < 1000 {
			cal.TotalBatches = 1000
		}
		calRes, err := bench.RunServeBench(cal)
		if err != nil {
			return err
		}
		// Offered at measured closed-loop capacity with an admission budget
		// of half that: the server sees 2x its configured execution budget,
		// which is the overload admission control exists for. The budget
		// must sit low enough that executed work + pre-parse shed replies +
		// the co-located load generator all fit in the CPU budget —
		// closed-loop capacity already saturates the host, so refusing work
		// has to free real headroom or no policy can hold latency bounded.
		over := cal
		over.ArrivalRate = calRes.Throughput
		over.ExecRate = 0.5 * calRes.Throughput
		res, err := bench.RunServeBench(over)
		if err != nil {
			return err
		}
		emit(res)
		fmt.Printf("overload evidence: capacity=%.0f batches/sec, offered=%.0f, admitted-budget=%.0f, served=%d, shed=%d, p99=%.1fus\n",
			calRes.Throughput, over.ArrivalRate, over.ExecRate, res.OK, res.Shed, res.P99us)
	}

	// The acceptance evidence row: mvcc backend, 95/5 read mix over
	// predication maps — every wire-issued read-only batch must ride the
	// snapshot path and commit abort-free (ro_batches == mvcc_snapshot_txns).
	// Only meaningful against the in-process server, where STM stats are
	// visible.
	if addr == "" {
		c := cfg
		c.Backend = "mvcc"
		c.Maps = "predication"
		c.ROMix = 0.95
		c.ArrivalRate = 0
		c.Pipeline = pipelines[len(pipelines)-1]
		res, err := bench.RunServeBench(c)
		if err != nil {
			return err
		}
		emit(res)
		fmt.Printf("mvcc 95/5 evidence: ro_batches=%d mvcc_snapshot_txns=%d stm_aborts=%d\n",
			res.ROBatches, res.MVCCSnapshotTxns, res.StmAborts)
	}

	if jsonPath != "" {
		payload := struct {
			Config  bench.ServeBenchConfig `json:"config"`
			Results []bench.ServeResult    `json:"results"`
		}{cfg, results}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if jsonPath == "-" {
			os.Stdout.Write(data)
		} else {
			if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("\n# wrote %d results to %s\n", len(results), jsonPath)
		}
	}
	if csvPath != "" {
		if err := writeServeCSV(csvPath, results); err != nil {
			return err
		}
		fmt.Printf("# wrote CSV to %s\n", csvPath)
	}
	return nil
}

func writeServeCSV(path string, results []bench.ServeResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "mode,backend,maps,conns,pipeline,arrival_rate,ro_mix,batches,ok,shed,deadline,errors,throughput_batches_per_sec,ops_per_sec,p50_us,p95_us,p99_us,p999_us,ro_batches,stm_commits,stm_aborts,mvcc_snapshot_txns")
	for _, r := range results {
		fmt.Fprintf(f, "%s,%s,%s,%d,%d,%.0f,%.2f,%d,%d,%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d,%d,%d\n",
			r.Mode, r.Backend, r.Maps, r.Conns, r.Pipeline, r.ArrivalRate, r.ROMix,
			r.Batches, r.OK, r.Shed, r.Deadline, r.Errors,
			r.Throughput, r.OpsPerSec, r.P50us, r.P95us, r.P99us, r.P999us,
			r.ROBatches, r.StmCommits, r.StmAborts, r.MVCCSnapshotTxns)
	}
	return nil
}

func intList(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func floatList(s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
