package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// row is one line of the comparison: both sides' quartiles over their clean
// runs, how much worse B's median is than A's as a share of A's, and the
// verdict against the metric's bound.
type row struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	na, nb           int
	worse            float64 // (B-A)/A in the metric's bad direction; negative = better
	bound            float64
	verdict, why     string
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", p, err)
			return 2
		}
	}
	rows := compareFiles(files[0], files[1])
	printRows(os.Stdout, files[0], files[1], rows)
	for _, r := range rows {
		if r.verdict == regressed {
			return 1
		}
	}
	return 0
}

// cleanValues collects a metric's values over the untraced runs of one
// workload, leaving out runs stamped noisy_host, and reports how many runs
// there were in all.
func cleanValues(f resultFile, workload, metric string) (vals []float64, total int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		total++
		if m, ok := r.Metrics[metric]; ok && !r.NoisyHost {
			vals = append(vals, m.Value)
		}
	}
	return vals, total
}

func compareFiles(a, b resultFile) []row {
	var rows []row
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, ta := cleanValues(a, w.name, d.Name)
			vb, tb := cleanValues(b, w.name, d.Name)
			if ta == 0 && tb == 0 {
				continue
			}
			rows = append(rows, judge(w.name, d, va, vb, ta, tb))
		}
	}
	return rows
}

// judge gives the verdict for one row. A side with fewer than half of its
// runs clean, or whose own quartile spread exceeds the bound, cannot resolve
// a difference of the bound's size: the row is unresolved, not unchanged.
func judge(workload string, d metricDef, va, vb []float64, ta, tb int) row {
	r := row{workload: workload, metric: d.Name, na: len(va), nb: len(vb), bound: d.Bound}
	r.a[0], r.a[1], r.a[2] = quartiles(va)
	r.b[0], r.b[1], r.b[2] = quartiles(vb)
	if len(va)*2 < ta || len(vb)*2 < tb || len(va) == 0 || len(vb) == 0 {
		r.verdict, r.why = unresolved, "noisy_host"
		return r
	}
	if r.a[1] != 0 {
		r.worse = (r.b[1] - r.a[1]) / r.a[1]
		if d.Better == higher {
			r.worse = -r.worse
		}
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / q[1]
	}
	switch {
	case spread(r.a) > d.Bound || spread(r.b) > d.Bound:
		r.verdict, r.why = unresolved, fmt.Sprintf("spread %.1f%%/%.1f%% wider than bound", 100*spread(r.a), 100*spread(r.b))
	case r.worse > d.Bound:
		r.verdict = regressed
	default:
		r.verdict = within
	}
	return r
}

func printRows(w io.Writer, a, b resultFile, rows []row) {
	fmt.Fprintf(w, "A: commit %s  %s  %d CPU  degraded=%v\n", a.Env.Commit, a.Env.GoVersion, a.Env.NumCPU, a.Env.Degraded)
	fmt.Fprintf(w, "B: commit %s  %s  %d CPU  degraded=%v\n", b.Env.Commit, b.Env.GoVersion, b.Env.NumCPU, b.Env.Degraded)
	fmt.Fprintf(w, "%-14s %-14s %3s %12s %12s %12s | %3s %12s %12s %12s | %22s %6s  %s\n",
		"workload", "metric", "nA", "A.q1", "A.median", "A.q3", "nB", "B.q1", "B.median", "B.q3", "B worse than A", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %3d %12.6g %12.6g %12.6g | %3d %12.6g %12.6g %12.6g | %+7.2f%% of %-10.6g %5.0f%%  %s",
			r.workload, r.metric, r.na, r.a[0], r.a[1], r.a[2], r.nb, r.b[0], r.b[1], r.b[2], 100*r.worse, r.a[1], 100*r.bound, r.verdict)
		if r.why != "" {
			fmt.Fprintf(w, " (%s)", r.why)
		}
		fmt.Fprintln(w)
	}
}
