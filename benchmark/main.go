// Command benchmark is the repository's one measurement spine: four fixed
// workloads, seven gated end-to-end metrics from a tracing-off run, and a
// separate traced run that attributes the time to layers (spans recorded
// here around calls into each layer, STM and server counters, and a layer
// ladder). BENCHMARK.json at the root of the repository is its contract; see
// README.md beside this file.
//
//	bash benchmark/run.sh                          every workload, untraced then traced
//	bash benchmark/run.sh --workload lib-bank --seed 3 --seconds 10 --trace 0
//	bash benchmark/run.sh -runs 5 -out A.json      five untraced passes into one file
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh -smoke                   one second per workload, oracles on
//	bash benchmark/run.sh contract                 print BENCHMARK.json as the binary defines it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

const resultsDir = "results/benchmark" // already ignored by the root .gitignore

// resultFile is what a run leaves behind for compare.
type resultFile struct {
	Schema    int         `json:"schema"`
	Env       fingerprint `json:"env"`
	Runs      []runResult `json:"runs"`
	Generated string      `json:"generated"`
}

// contractLine is the last line of standard output in single-workload mode.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "contract" {
		printContract()
		return
	}
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated op stream")
		seconds = flag.Float64("seconds", 30, "length of the timed region")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced; -1 (with -workload all): both")
		runs    = flag.Int("runs", 1, "repeat the untraced pass this many times into one result file")
		smoke   = flag.Bool("smoke", false, "run every workload for one second, untraced and traced, oracles on")
		out     = flag.String("out", filepath.Join(resultsDir, "latest.json"), "result file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *smoke {
		*name, *seconds, *trace, *runs = "all", 1, -1, 1
	}
	if *seconds <= 0 || *runs < 1 {
		fatal(fmt.Errorf("-seconds and -runs must be positive"))
	}
	d := time.Duration(*seconds * float64(time.Second))

	env := readFingerprint()
	if env.Degraded {
		fmt.Fprintf(os.Stderr, "benchmark: DEGRADED: %d CPU(s), GOMAXPROCS %d; two workers need two cores, do not gate on these numbers\n",
			env.NumCPU, env.GOMAXPROCS)
	}
	file := resultFile{Schema: 1, Env: env, Generated: time.Now().UTC().Format(time.RFC3339)}
	ok := true
	setups := setupRepeats
	if *smoke {
		setups = 1
	}
	run := func(w workload, traced bool, d time.Duration) runResult {
		// The spin probe brackets the run: a host that changed speed while
		// the workload ran is stamped on the result.
		before := spinMops()
		res, err := runWorkload(w, *seed, d, traced, setups, resultsDir)
		if err != nil {
			fatal(err)
		}
		res.SpinMops = [2]float64{before, spinMops()}
		res.NoisyHost = math.Abs(res.SpinMops[1]-before) > noisySpinDelta*before
		printRun(res)
		file.Runs = append(file.Runs, res)
		ok = ok && res.Correct
		return res
	}

	if *name != "all" {
		// The driver's contract: one workload, one pass, one JSON line last.
		w, found := workloadByName(*name)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res := run(w, *trace == 1, d)
		writeResults(*out, file)
		line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	} else {
		for i := 0; i < *runs; i++ {
			for _, w := range workloads {
				if *trace != 1 {
					run(w, false, d)
				}
			}
		}
		if *trace != 0 {
			// The traced pass is the part to shorten, never the timed regions.
			for _, w := range workloads {
				run(w, true, max(d/3, time.Second))
			}
		}
		writeResults(*out, file)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED: an oracle found a mismatch or an operation failed")
		os.Exit(1)
	}
}

// contractFile is BENCHMARK.json: exactly these keys.
type contractFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []namedWhy  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"` // bound 0 is omitted: per-layer metrics have none
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// contract is BENCHMARK.json as this binary defines it.
func contract() contractFile {
	c := contractFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: contractRunSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, namedWhy{w.name, w.why})
	}
	return c
}

// printContract prints contract(); the file at the root of the repository is
// this output, and a test keeps the two equal.
func printContract() {
	b, err := json.MarshalIndent(contract(), "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeResults(path string, file resultFile) {
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fatal(fmt.Errorf("write results: %w", err))
	}
}

// printRun prints every metric of a run by name, with its unit, and the
// sample counts behind the timings.
func printRun(r runResult) {
	defs, pass := endToEnd, "untraced"
	if r.Traced {
		defs, pass = perLayer, "traced"
	}
	fmt.Printf("== %s  %s  seed=%d  seconds=%g  attempted=%d failed=%d  txn_samples=%d (min window %d, dropped %d)  spin_mops=%.0f/%.0f",
		r.Workload, pass, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Samples, r.MinWindowSamples, r.DroppedSamples, r.SpinMops[0], r.SpinMops[1])
	if r.NoisyHost {
		fmt.Print("  NOISY_HOST")
	}
	if !r.Traced && r.MinWindowSamples < minWindowSamples {
		fmt.Printf("  (a window holds fewer than %d samples: read txn_p99_us with care)", minWindowSamples)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-36s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}
