// Command proust-report is the abort-forensics reporter: point it at a flight
// dump (JSON lines of lifecycle events and phase samples, as written by
// proust-bench -flight-out or the /flight endpoint) and optionally a metrics
// snapshot (/metrics.json or proust-bench -metrics-out), and it prints the
// contended-run post-mortem: top conflicting keys, the abort-cause breakdown
// with the phase each cause dies in, shard imbalance (Gini), and rule-based
// tuning hints.
//
// Usage:
//
//	proust-report -flight run.flight.jsonl [-metrics run.metrics.json] [-top 10] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"proust/internal/obs"
	"proust/internal/report"
)

func main() {
	var (
		flightPath  = flag.String("flight", "", "flight dump (JSONL) to analyze; - for stdin")
		metricsPath = flag.String("metrics", "", "optional metrics snapshot JSON (/metrics.json payload)")
		topN        = flag.Int("top", 10, "how many conflicting keys to list")
		asJSON      = flag.Bool("json", false, "emit the analysis as JSON instead of text")
	)
	flag.Parse()
	if *flightPath == "" {
		fmt.Fprintln(os.Stderr, "proust-report: -flight is required (use - for stdin)")
		flag.Usage()
		os.Exit(2)
	}

	in := os.Stdin
	if *flightPath != "-" {
		f, err := os.Open(*flightPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	dump, err := report.ParseDump(in)
	if err != nil {
		fatal(fmt.Errorf("parsing flight dump: %w", err))
	}

	var fams []obs.FamilySnapshot
	if *metricsPath != "" {
		mf, err := os.Open(*metricsPath)
		if err != nil {
			fatal(err)
		}
		fams, err = report.ParseMetrics(mf)
		mf.Close()
		if err != nil {
			fatal(fmt.Errorf("parsing metrics snapshot: %w", err))
		}
	}

	a := report.Analyze(dump, fams, *topN)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fatal(err)
		}
		return
	}
	if err := a.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "proust-report:", err)
	os.Exit(1)
}
