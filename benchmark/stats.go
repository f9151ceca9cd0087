package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// recorder is one worker's measurement state for one phase: committed ops
// per window, latency samples in arrival order with the index at which each
// window closed, and the oracle's attempted/failed counts. It is owned by
// its worker goroutine and read only after that goroutine has ended. All
// buffers are allocated up front; recording never allocates.
type recorder struct {
	start  time.Time // common to every worker of the phase
	seed   uint64    // generator seed of the phase
	winLen int64     // ns; 0 = count-limited phase (warm-up), no windows
	limit  int       // count-limited phase: iterations per worker

	cur     int // current window
	ops     [windows]uint64
	mem     []byte   // off-heap backing of lat
	lat     []uint32 // ns, clamped to ~4.29 s
	winEnd  [windows]int
	dropped uint64

	attempted, failed uint64
	_                 [64]byte // keep neighbouring recorders off this one's last cache line
}

func newRecorder(capSamples int) *recorder {
	mem := offHeap(4 * capSamples)
	return &recorder{mem: mem, lat: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), capSamples)[:0]}
}

// release unmaps the sample buffer; the recorder must not record afterwards.
func (r *recorder) release() {
	_ = syscall.Munmap(r.mem) // nothing to do about a failed unmap of our own mapping
	r.mem, r.lat = nil, nil
}

// begin arms the recorder for a timed region of d (or, with d == 0, for a
// count-limited phase of limit iterations).
func (r *recorder) begin(start time.Time, seed uint64, d time.Duration, limit int) {
	*r = recorder{start: start, seed: seed, winLen: int64(d) / windows, limit: limit, mem: r.mem, lat: r.lat[:0]}
}

// more reports whether the worker should start iteration i.
func (r *recorder) more(i int) bool { return r.limit == 0 || i < r.limit }

// now is nanoseconds since the phase started (monotonic).
func (r *recorder) now() int64 { return int64(time.Since(r.start)) }

// tick moves the current window to the one holding t and reports whether the
// timed region is still open.
func (r *recorder) tick(t int64) bool {
	if r.winLen == 0 {
		return true
	}
	w := int(t / r.winLen)
	for r.cur < w && r.cur < windows-1 {
		r.winEnd[r.cur] = len(r.lat)
		r.cur++
	}
	return w < windows
}

// sample records one latency.
func (r *recorder) sample(ns int64) {
	if len(r.lat) == cap(r.lat) {
		r.dropped++
		return
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	r.lat = append(r.lat, uint32(ns))
}

// commit counts n committed ops in the current window; fail counts n ops
// that were attempted and did not succeed.
func (r *recorder) commit(n int) { r.attempted += uint64(n); r.ops[r.cur] += uint64(n) }
func (r *recorder) fail(n int)   { r.attempted += uint64(n); r.failed += uint64(n) }

// mismatch counts one failed oracle check on an op already counted.
func (r *recorder) mismatch() { r.failed++ }

// check counts one end-of-run oracle check and reports its failure.
func (r *recorder) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: oracle: %s: %v\n", what, err)
	}
}

// window returns the samples recorded during window w.
func (r *recorder) window(w int) []uint32 {
	lo := 0
	if w > 0 {
		lo = r.winEnd[w-1]
	}
	hi := len(r.lat)
	if w < r.cur {
		hi = r.winEnd[w]
	}
	if w > r.cur {
		lo = hi
	}
	return r.lat[lo:hi]
}

// regionStats is what one timed region yields across its workers.
type regionStats struct {
	opsPerS             float64 // committed ops over the whole region, per second
	totalOps            uint64
	midus, p50us, p99us float64 // medians over the ten windows of each window's trimmed mean, p50 and p99
	samples             int
	minWindowSamples    int
	dropped             uint64
	attempted           uint64
	failed              uint64
}

func summarize(recs []*recorder, d time.Duration) regionStats {
	var st regionStats
	var mids, p50s, p99s []float64
	st.minWindowSamples = math.MaxInt
	for w := 0; w < windows; w++ {
		var ops uint64
		var ws []uint32
		for _, r := range recs {
			ops += r.ops[w]
			ws = append(ws, r.window(w)...)
		}
		st.totalOps += ops
		if len(ws) < st.minWindowSamples {
			st.minWindowSamples = len(ws)
		}
		st.samples += len(ws)
		if len(ws) > 0 {
			slices.Sort(ws)
			mids = append(mids, trimmedMean(ws)/1e3)
			p50s = append(p50s, float64(ws[rank(len(ws), 0.5)])/1e3)
			p99s = append(p99s, float64(ws[rank(len(ws), 0.99)])/1e3)
		}
	}
	for _, r := range recs {
		st.dropped += r.dropped
		st.attempted += r.attempted
		st.failed += r.failed
	}
	st.opsPerS = float64(st.totalOps) / d.Seconds()
	// A window's percentile, then the median over windows: a stall, a GC
	// cycle or a slow stretch of the host that lasts a window or two cannot
	// own the number.
	st.midus, st.p50us, st.p99us = median(mids), median(p50s), median(p99s)
	return st
}

// rank is the index of quantile q in a sorted slice of n values.
func rank(n int, q float64) int {
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// trimmedMean is the mean of the sorted samples with the lowest and the
// highest tenth left out. Where a latency distribution has two modes of
// similar weight — wire-point has, one goroutine hand-off apart — the median
// sits on the boundary between them and jumps from one to the other between
// runs (16 % spread on a quiet host); the trimmed mean moves with the modes'
// shares instead (under 5 %), and still ignores both tails.
func trimmedMean(sorted []uint32) float64 {
	lo, hi := len(sorted)/10, len(sorted)-len(sorted)/10
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// median of v (v is reordered).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of v as
// Python's statistics.quantiles(v, n=4) computes them (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// p50ns is the median of a slice of nanosecond durations, in ns.
func p50ns(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}
