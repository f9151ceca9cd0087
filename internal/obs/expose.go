package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// WriteText renders the registry in the Prometheus text exposition format
// (text/plain; version=0.0.4): HELP/TYPE headers, one sample line per child,
// histograms as cumulative _bucket{le=...} series plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.gather()
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, c := range f.sortedChildren() {
			base := labelString(f.labels, c.labelVals)
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, base, c.counter.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, base, c.gauge.Value())
			case kindHistogram:
				writeHistText(w, f, c)
			}
		}
	}
	return nil
}

func writeHistText(w io.Writer, f *family, c *child) {
	snap := c.hist.snapshot()
	var cum uint64
	for i, n := range snap.Buckets {
		cum += n
		if n == 0 && i != len(snap.Buckets)-1 {
			// Keep the exposition small: only emit buckets that change the
			// cumulative count, plus +Inf below.
			continue
		}
		le := renderBound(f.unit, bucketUpper(i))
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelStringExtra(f.labels, c.labelVals, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
		labelStringExtra(f.labels, c.labelVals, "le", "+Inf"), snap.Count)
	if f.unit == UnitNanoseconds {
		fmt.Fprintf(w, "%s_sum%s %g\n", f.name, labelString(f.labels, c.labelVals),
			float64(snap.Sum)/1e9)
	} else {
		fmt.Fprintf(w, "%s_sum%s %d\n", f.name, labelString(f.labels, c.labelVals), snap.Sum)
	}
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelVals), snap.Count)
}

// renderBound renders a bucket upper bound per the unit: seconds for
// nanosecond histograms, plain integers otherwise.
func renderBound(u Unit, upper uint64) string {
	if u == UnitNanoseconds {
		return fmt.Sprintf("%g", float64(upper)/1e9)
	}
	return fmt.Sprintf("%d", upper)
}

func labelString(names, vals []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = fmt.Sprintf("%s=%q", names[i], escapeLabel(vals[i]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func labelStringExtra(names, vals []string, extraName, extraVal string) string {
	parts := make([]string, 0, len(names)+1)
	for i := range names {
		parts = append(parts, fmt.Sprintf("%s=%q", names[i], escapeLabel(vals[i])))
	}
	parts = append(parts, fmt.Sprintf("%s=%q", extraName, extraVal))
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// MetricSnapshot is one child in the JSON snapshot.
type MetricSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *int64             `json:"value,omitempty"`
	Count     *uint64            `json:"count,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one metric family in the JSON snapshot.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help"`
	Type    string           `json:"type"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot returns a point-in-time JSON-ready copy of every family.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.gather()
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, c := range f.sortedChildren() {
			m := MetricSnapshot{}
			if len(f.labels) > 0 {
				m.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					m.Labels[n] = c.labelVals[i]
				}
			}
			switch f.kind {
			case kindCounter:
				v := c.counter.Value()
				m.Count = &v
			case kindGauge:
				v := c.gauge.Value()
				m.Value = &v
			case kindHistogram:
				h := c.hist.snapshot()
				m.Histogram = &h
			}
			fs.Metrics = append(fs.Metrics, m)
		}
		out = append(out, fs)
	}
	return out
}

// Endpoint is an extra route mounted on the observability handler, e.g.
// TraceEndpoint or ShardsEndpoint.
type Endpoint struct {
	Path    string
	Handler http.HandlerFunc
}

// TraceEndpoint serves the retained phase samples and flight-recorder events
// as Chrome trace-event JSON at /trace (load the download in Perfetto or
// chrome://tracing). Either argument may be nil.
func TraceEndpoint(po *PhaseObserver, fr *FlightRecorder) Endpoint {
	return Endpoint{Path: "/trace", Handler: func(w http.ResponseWriter, req *http.Request) {
		if po == nil && fr == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="proust-trace.json"`)
		_ = WriteChromeTrace(w, po.Samples(), fr.Events())
	}}
}

// ShardsEndpoint serves the per-backend shard heat reports (per-shard clocks
// and their Gini coefficient) as JSON at /shards —
// the timebase-side sibling of the LockObserver hot-stripe table.
func ShardsEndpoint(c *STMCollector) Endpoint {
	return Endpoint{Path: "/shards", Handler: func(w http.ResponseWriter, req *http.Request) {
		if c == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.ShardReports())
	}}
}

// Handler returns the observability HTTP handler:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot of every family
//	/flight        flight-recorder dump as JSON lines (when fr != nil)
//	/debug/pprof/  the standard Go profiler endpoints
//
// plus any extra endpoints (e.g. TraceEndpoint, ShardsEndpoint). Either core
// argument may be nil; the corresponding endpoints report 404.
func Handler(r *Registry, fr *FlightRecorder, extras ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		if fr == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = fr.DumpJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, e := range extras {
		if e.Path != "" && e.Handler != nil {
			mux.HandleFunc(e.Path, e.Handler)
		}
	}
	return mux
}

// serveDrainTimeout bounds how long the Serve shutdown func waits for
// in-flight scrapes to complete before tearing connections down.
const serveDrainTimeout = 5 * time.Second

// Serve starts the observability endpoint on addr and returns the bound
// listener address (useful with ":0") and a shutdown func. It is what
// proust-bench -metrics-addr uses; any embedder can do the same.
//
// The shutdown func drains gracefully: it stops accepting connections, lets
// in-flight requests (a scrape mid-write, a trace download) complete for up
// to serveDrainTimeout, and only then force-closes whatever remains.
func Serve(addr string, r *Registry, fr *FlightRecorder, extras ...Endpoint) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(r, fr, extras...)}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}
