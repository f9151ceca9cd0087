// Command proust-bench regenerates the evaluation of the Proust paper
// (Figure 4 and the Section 7 trend claims) on the local machine.
//
// Usage:
//
//	proust-bench -experiment figure4          # the full 4×5 grid
//	proust-bench -experiment figure4memo      # memoizing shadow-copy row
//	proust-bench -experiment trends           # summary of claims (a)-(d)
//	proust-bench -experiment quick            # reduced grid for smoke runs
//	proust-bench -experiment backends         # per-STM-backend throughput sweep
//	proust-bench -list-backends               # enumerate registered STM backends
//	proust-bench -policy tl2                  # run every system on one backend
//	proust-bench -ops 1000000 -warmups 10 -reps 10   # the paper's protocol
//	proust-bench -metrics-addr :9090 -experiment figure4   # live observability
//	proust-bench -series ts.jsonl -flight flight.jsonl     # time series + flight dump
//	proust-bench -experiment quick -trace-out trace.json  # Perfetto trace
//	proust-bench -flight run.jsonl -metrics-out run.metrics.json    # proust-report inputs
//
// The absolute numbers differ from the paper's EC2 m4.10xlarge/JVM setup;
// the shapes (who wins, scaling trends, the effect of o and u) are the
// reproduction target. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtrace "runtime/trace"
	"strings"
	"time"

	"proust/internal/bench"
	"proust/internal/obs"
	"proust/internal/stm"
)

// dumpFlight writes the flight recorder — and, when po is non-nil, the
// retained phase samples — to path as JSON lines. proust-report ingests the
// mixed stream directly, sniffing sample lines by their "phases" field.
func dumpFlight(fr *obs.FlightRecorder, po *obs.PhaseObserver, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench: flight dump:", err)
		return
	}
	defer f.Close()
	if err := fr.DumpJSONL(f); err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench: flight dump:", err)
		return
	}
	if po != nil {
		enc := json.NewEncoder(f)
		for _, s := range po.Samples() {
			if err := enc.Encode(s); err != nil {
				fmt.Fprintln(os.Stderr, "proust-bench: flight dump:", err)
				return
			}
		}
	}
	fmt.Printf("# wrote flight recorder dump to %s\n", path)
}

// writeChromeTrace renders the run's retained phase samples and flight events
// as Chrome trace-event JSON at path (load at ui.perfetto.dev or
// chrome://tracing).
func writeChromeTrace(obsv *bench.Observability, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench: trace out:", err)
		return
	}
	defer f.Close()
	samples := obsv.Phases.Samples()
	if err := obs.WriteChromeTrace(f, samples, obsv.Flight.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench: trace out:", err)
		return
	}
	fmt.Printf("# wrote Chrome trace (%d phase samples) to %s — load at ui.perfetto.dev\n",
		len(samples), path)
}

// writeMetricsSnapshot writes the registry's JSON snapshot (the /metrics.json
// payload, which proust-report -metrics ingests) to path.
func writeMetricsSnapshot(r *obs.Registry, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench: metrics out:", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench: metrics out:", err)
		return
	}
	fmt.Printf("# wrote metrics snapshot to %s\n", path)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "proust-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("proust-bench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "quick", "figure4 | figure4memo | trends | quick | contention | backends | read-heavy | serve")
		ops        = fs.Int("ops", 0, "operations per configuration (0 = experiment default)")
		warmups    = fs.Int("warmups", -1, "warm-up runs per configuration (-1 = experiment default)")
		reps       = fs.Int("reps", -1, "timed repetitions per configuration (-1 = experiment default)")
		threads    = fs.String("threads", "", "comma-separated thread counts (default per experiment)")
		keyRange   = fs.Int("keyrange", 0, "key range (0 = experiment default)")
		systems    = fs.String("systems", "", "comma-separated system subset (default: all)")
		policy     = fs.String("policy", "", "STM backend name; runs every system on that backend (see -list-backends)")
		listBk     = fs.Bool("list-backends", false, "list registered STM backends and exit")
		jsonPath   = fs.String("json", "", "write per-backend results (ops/sec, abort causes, histograms) as JSON to this file ('-' = stdout)")
		csvPath    = fs.String("csv", "", "also write results as CSV to this file")
		readOps    = fs.Int("read-txn-ops", 0, "read-heavy experiment: ops per read-only transaction (0 = default scan length)")

		serveAddr   = fs.String("addr", "", "serve experiment: address of an already-running proust-serve (empty = spin up an in-process server)")
		conns       = fs.String("conns", "", "serve experiment: client connection count (default 4)")
		pipelineStr = fs.String("pipeline", "", "serve experiment: comma-separated closed-loop pipeline depths (default 1,8,32)")
		arrivalStr  = fs.String("arrival-rate", "", "serve experiment: comma-separated open-loop arrival rates in batches/sec (default: closed-loop only)")
		roMix       = fs.Float64("ro-mix", -1, "serve experiment: fraction of batches that are read-only (default 0.5)")
		serveMaps   = fs.String("maps", "", "serve experiment: namespace map implementation, predication | boosted (default predication)")
		serveDur    = fs.Duration("duration", 0, "serve experiment: open-loop run duration per arrival rate (default 2s)")

		chaos     = fs.Bool("chaos", false, "wrap every system's backend in the fault-injecting chaos layer (soak mode)")
		chaosSeed = fs.Uint64("chaos-seed", 1, "deterministic seed for -chaos fault draws")
		deadline  = fs.Duration("deadline", 0, "per-transaction deadline via AtomicallyCtx (0 = nil-ctx fast path); expiries count as timeouts")
		escalate  = fs.Int("escalate", 0, "escalate transactions to serial mode after this many conflict aborts (0 = disabled)")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json, /flight, /trace, /shards and /debug/pprof on this address for the duration of the run")
		seriesPath  = fs.String("series", "", "append a periodic observability time series (JSON lines) to this file")
		seriesInt   = fs.Duration("series-interval", time.Second, "sampling interval for -series")
		flightPath  = fs.String("flight", "", "dump the transaction flight recorder plus phase samples (JSON lines) to this file when the run ends")
		traceOut    = fs.String("trace-out", "", "write the run's phase spans and lifecycle events as Chrome trace-event JSON (Perfetto-loadable) to this file")
		metricsOut  = fs.String("metrics-out", "", "write the final metrics snapshot (the /metrics.json payload) to this file when the run ends")
		rtracePath  = fs.String("runtime-trace", "", "also capture a Go runtime execution trace (go tool trace) to this file for the duration of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listBk {
		fmt.Println("Registered STM backends:")
		for _, bf := range stm.Backends() {
			fmt.Printf("  %-8s %-22s %s\n", bf.Name, "("+bf.Policy.String()+")", bf.Doc)
		}
		return nil
	}

	if *policy != "" {
		if _, ok := stm.BackendByName(*policy); !ok {
			return fmt.Errorf("unknown backend %q for -policy (valid backends: %s)",
				*policy, strings.Join(stm.BackendNames(), ", "))
		}
	}

	var obsv *bench.Observability
	if *metricsAddr != "" || *seriesPath != "" || *flightPath != "" || *traceOut != "" || *metricsOut != "" {
		obsv = bench.NewObservability(0)
		if *metricsAddr != "" {
			addr, stop, err := obs.Serve(*metricsAddr, obsv.Registry, obsv.Flight,
				obs.TraceEndpoint(obsv.Phases, obsv.Flight),
				obs.ShardsEndpoint(obsv.Collector))
			if err != nil {
				return fmt.Errorf("metrics endpoint: %w", err)
			}
			defer stop()
			fmt.Printf("# observability: http://%s/metrics (also /metrics.json, /flight, /trace, /shards, /debug/pprof)\n", addr)
		}
		if *seriesPath != "" {
			f, err := os.Create(*seriesPath)
			if err != nil {
				return fmt.Errorf("create series file: %w", err)
			}
			defer f.Close()
			stop := obsv.StartSeries(f, *seriesInt)
			defer stop()
		}
		// Abort storms auto-dump the flight recorder so the window around
		// the storm is preserved even if the process is later killed.
		stormBase := *flightPath
		if stormBase == "" {
			stormBase = "flight"
		}
		obsv.Flight.SetStormPolicy(10000, int64(100*time.Millisecond), func(fr *obs.FlightRecorder) {
			n := fr.Storms()
			path := fmt.Sprintf("%s.storm%d.jsonl", stormBase, n)
			fmt.Fprintf(os.Stderr, "# abort storm %d detected; dumping flight recorder to %s\n", n, path)
			go dumpFlight(fr, obsv.Phases, path)
		})
		defer func() {
			if *flightPath != "" {
				dumpFlight(obsv.Flight, obsv.Phases, *flightPath)
			}
			if *traceOut != "" {
				writeChromeTrace(obsv, *traceOut)
			}
			if *metricsOut != "" {
				writeMetricsSnapshot(obsv.Registry, *metricsOut)
			}
			fc := obsv.Estimator.Stats()
			fmt.Printf("# false-conflict estimate: %d conflict aborts examined, %d likely false, %d likely true, %d unattributed (ratio %.3f)\n",
				fc.Examined, fc.LikelyFalse, fc.LikelyTrue, fc.Unattributed, fc.Ratio)
		}()
	}
	if *rtracePath != "" {
		f, err := os.Create(*rtracePath)
		if err != nil {
			return fmt.Errorf("create runtime trace file: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("runtime trace: %w", err)
		}
		defer func() {
			rtrace.Stop()
			f.Close()
			fmt.Printf("# wrote Go runtime trace to %s (view with: go tool trace %s)\n", *rtracePath, *rtracePath)
		}()
	}

	if *experiment == "backends" {
		return runBackends(*policy, *threads, *ops, *warmups, *reps, *keyRange, *jsonPath)
	}
	if *experiment == "read-heavy" {
		return runReadHeavy(*threads, *ops, *warmups, *reps, *keyRange, *readOps, *jsonPath)
	}
	if *experiment == "serve" {
		return runServe(*serveAddr, *policy, *serveMaps, *conns, *pipelineStr, *arrivalStr,
			*roMix, *ops, *serveDur, *jsonPath, *csvPath)
	}

	cfg := bench.DefaultSweep(os.Stdout)
	cfg.Backend = *policy
	cfg.Obs = obsv
	if *chaos {
		cc := stm.DefaultChaosConfig()
		cc.Seed = *chaosSeed
		cfg.Chaos = &cc
	}
	cfg.Escalate = *escalate
	cfg.TxnDeadline = *deadline
	switch *experiment {
	case "figure4":
		cfg.TotalOps = 1000000
		cfg.Warmups = 2
		cfg.Reps = 3
	case "figure4memo":
		cfg.TotalOps = 1000000
		cfg.OpsPerTxn = []int{16, 256}
		cfg.WriteFrac = []float64{0.5, 1}
		cfg.Systems = []string{"proust-lazy-memo", "proust-lazy-memo-combining", "predication"}
	case "trends", "quick":
		cfg.TotalOps = 100000
		cfg.Threads = []int{1, 2, 4, 8}
		cfg.OpsPerTxn = []int{1, 16, 256}
		cfg.WriteFrac = []float64{0, 0.5, 1}
		cfg.Warmups = 1
		cfg.Reps = 2
	case "contention":
		// High-contention configuration that exposes false conflicts even
		// without parallel hardware: a small key range concentrated into
		// few pure-STM buckets, and long transactions so goroutine
		// interleaving creates real overlap. Compare abort rates: the
		// pure-STM map aborts on disjoint keys (false conflicts); the
		// Proustian/predication maps only on genuine key collisions.
		cfg.TotalOps = 50000
		cfg.Threads = []int{8}
		cfg.OpsPerTxn = []int{16, 64}
		cfg.WriteFrac = []float64{0.5}
		cfg.KeyRange = 128
		cfg.Warmups = 1
		cfg.Reps = 2
		cfg.Interleave = true
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	if *ops > 0 {
		cfg.TotalOps = *ops
	}
	if *warmups >= 0 {
		cfg.Warmups = *warmups
	}
	if *reps >= 0 {
		cfg.Reps = *reps
	}
	if *threads != "" {
		var ts []int
		for _, part := range strings.Split(*threads, ",") {
			var t int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &t); err != nil || t < 1 {
				return fmt.Errorf("bad -threads entry %q", part)
			}
			ts = append(ts, t)
		}
		cfg.Threads = ts
	}
	if *keyRange > 0 {
		cfg.KeyRange = *keyRange
	}
	if *systems != "" {
		cfg.Systems = strings.Split(*systems, ",")
	}

	fmt.Printf("# proust-bench: experiment=%s GOMAXPROCS=%d ops=%d warmups=%d reps=%d keyRange=%d\n",
		*experiment, runtime.GOMAXPROCS(0), cfg.TotalOps, cfg.Warmups, cfg.Reps, cfg.KeyRange)

	results, err := bench.Sweep(cfg)
	if err != nil {
		return err
	}

	fmt.Println("\n# Trend summary (paper Section 7 claims)")
	for _, tr := range bench.AnalyzeTrends(results) {
		status := "HOLDS"
		if !tr.Holds {
			status = "DOES NOT HOLD"
		}
		fmt.Printf("  %-70s %s\n      %s\n", tr.Name, status, tr.Details)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("create csv: %w", err)
		}
		defer f.Close()
		bench.WriteCSV(f, results)
		fmt.Printf("\n# wrote %d results to %s\n", len(results), *csvPath)
	}
	return nil
}

// runBackends executes the per-STM-backend sweep (flat-ref workload over the
// backend registry) and optionally exports full instrumentation — abort-cause
// breakdown, validation-time and lock-hold histograms, tracer summary — as
// JSON.
func runBackends(policy, threads string, ops, warmups, reps, keyRange int, jsonPath string) error {
	cfg := bench.DefaultBackendBench()
	if ops > 0 {
		cfg.TotalOps = ops
	}
	if warmups >= 0 {
		cfg.Warmups = warmups
	}
	if reps > 0 {
		cfg.Reps = reps
	}
	if keyRange > 0 {
		cfg.KeyRange = keyRange
	}
	if threads != "" {
		var ts []int
		for _, part := range strings.Split(threads, ",") {
			var t int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &t); err != nil || t < 1 {
				return fmt.Errorf("bad -threads entry %q", part)
			}
			ts = append(ts, t)
		}
		cfg.Threads = ts
	}

	fmt.Printf("# proust-bench: experiment=backends GOMAXPROCS=%d ops=%d warmups=%d reps=%d keyRange=%d opsPerTxn=%d writeFrac=%.2f\n\n",
		runtime.GOMAXPROCS(0), cfg.TotalOps, cfg.Warmups, cfg.Reps, cfg.KeyRange, cfg.OpsPerTxn, cfg.WriteFraction)

	var results []bench.BackendResult
	if policy != "" {
		// Restrict the sweep to the requested backend.
		for _, t := range cfg.Threads {
			for i := 0; i < cfg.Warmups; i++ {
				if _, err := bench.RunBackendBench(policy, t, cfg); err != nil {
					return err
				}
			}
			var best bench.BackendResult
			for i := 0; i < cfg.Reps; i++ {
				res, err := bench.RunBackendBench(policy, t, cfg)
				if err != nil {
					return err
				}
				if res.OpsPerSec > best.OpsPerSec {
					best = res
				}
			}
			results = append(results, best)
			fmt.Printf("%-8s t=%d  %14.0f ops/sec  abort=%.2f%%\n",
				best.Backend, best.Threads, best.OpsPerSec, best.AbortRate*100)
		}
	} else {
		var err error
		results, err = bench.SweepBackends(cfg, os.Stdout)
		if err != nil {
			return err
		}
	}

	if jsonPath != "" {
		payload := struct {
			Config  bench.BackendBenchConfig `json:"config"`
			Results []bench.BackendResult    `json:"results"`
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
	return nil
}

// runReadHeavy executes the read-heavy experiment: the flat-ref workload at
// the 95/5 and 99/1 read-only-transaction mixes across every non-fault
// backend, with read-only transactions declared via stm.WithReadOnly so the
// mvcc backend serves them from snapshot vectors. JSON output (the shape of
// bench/history/BENCH_mvcc.json) carries the full per-run instrumentation.
func runReadHeavy(threads string, ops, warmups, reps, keyRange, readTxnOps int, jsonPath string) error {
	cfg := bench.DefaultBackendBench()
	cfg.ReadTxnOps = bench.DefaultReadTxnOps
	if readTxnOps > 0 {
		cfg.ReadTxnOps = readTxnOps
	}
	if ops > 0 {
		cfg.TotalOps = ops
	}
	if warmups >= 0 {
		cfg.Warmups = warmups
	}
	if reps > 0 {
		cfg.Reps = reps
	}
	if keyRange > 0 {
		cfg.KeyRange = keyRange
	}
	if threads != "" {
		var ts []int
		for _, part := range strings.Split(threads, ",") {
			var t int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &t); err != nil || t < 1 {
				return fmt.Errorf("bad -threads entry %q", part)
			}
			ts = append(ts, t)
		}
		cfg.Threads = ts
	}

	fmt.Printf("# proust-bench: experiment=read-heavy GOMAXPROCS=%d ops=%d warmups=%d reps=%d keyRange=%d opsPerTxn=%d readTxnOps=%d mixes=%v\n",
		runtime.GOMAXPROCS(0), cfg.TotalOps, cfg.Warmups, cfg.Reps, cfg.KeyRange, cfg.OpsPerTxn, cfg.ReadTxnOps, bench.ReadHeavyMixes)

	results, err := bench.SweepReadHeavy(cfg, bench.ReadHeavyMixes, os.Stdout)
	if err != nil {
		return err
	}

	if jsonPath != "" {
		payload := struct {
			Config  bench.BackendBenchConfig `json:"config"`
			Mixes   []float64                `json:"mixes"`
			Results []bench.ReadHeavyResult  `json:"results"`
		}{cfg, bench.ReadHeavyMixes, results}
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
	return nil
}
