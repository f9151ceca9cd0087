package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// Span names. Spans are recorded by the benchmark's own code around calls
// into each layer's public functions; nothing inside internal/ is
// instrumented.
const (
	spTxn        uint8 = iota // one Atomically call (lib) — root
	spTxnRO                   // one read-only audit transaction (lib-bank) — root
	spAttempt                 // one invocation of the transaction body
	spCoreGet                 // core.Map.Get inside the body
	spCorePut                 // core.Map.Put
	spCoreRemove              // core.Map.Remove
	spRefGet                  // stm.Ref.Get
	spRefSet                  // stm.Ref.Set
	spBatch                   // one wire burst, encode to last reply — root
	spEncode                  // server.Batch build
	spFlush                   // Client.Send + Client.Flush
	spReplyWait               // Client.ReadReply
	spDecode                  // walking and checking the reply's results
	spTxnEquiv                // the same batch through core.Do on the twin — root
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "txn_ro", "attempt", "core.get", "core.put", "core.remove",
	"stm.ref_get", "stm.ref_set", "batch", "server.client_encode",
	"server.client_flush", "server.reply_wait", "server.client_decode",
	"txn_equiv",
}

// span is one recorded interval. parent indexes the same tracer's spans
// (-1 for a root); id is the transaction / burst identifier every span of
// one request shares. end == 0 marks a span that was never closed.
type span struct {
	name       uint8
	parent     int32
	id         uint64
	start, end int64 // ns since the tracer's base
}

// tracer holds one worker's spans in memory until the run ends. It is not
// safe for concurrent use: each worker owns one.
type tracer struct {
	base    time.Time
	worker  int
	mem     []byte // off-heap backing of spans (a span holds no pointers)
	spans   []span
	dropped uint64
}

func newTracer(base time.Time, worker, capSpans int) *tracer {
	mem := offHeap(capSpans * int(unsafe.Sizeof(span{})))
	return &tracer{base: base, worker: worker, mem: mem,
		spans: unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capSpans)[:0]}
}

// release unmaps the span buffer; the tracer must not be used afterwards.
func (t *tracer) release() {
	_ = syscall.Munmap(t.mem) // nothing to do about a failed unmap of our own mapping
	t.mem, t.spans = nil, nil
}

// begin opens a span and returns its index, or -1 when the buffer is full
// (the span is counted as dropped and its time stays in its parent's self
// time).
func (t *tracer) begin(name uint8, parent int32, id uint64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.base))
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once. Spans are in begin order, so a
// child always follows its parent and siblings arrive by start time.
// Unclosed spans get -1.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans))
	lastEnd := make([]int64, len(spans))
	for i, s := range spans {
		lastEnd[i] = s.start
		if s.end == 0 {
			continue
		}
		if p := s.parent; p >= 0 && spans[p].end != 0 {
			lo, hi := max(s.start, lastEnd[p]), min(s.end, spans[p].end)
			if hi > lo {
				covered[p] += hi - lo
				lastEnd[p] = hi
			}
		}
	}
	for i, s := range spans {
		if s.end == 0 {
			self[i] = -1
			continue
		}
		self[i] = s.end - s.start - covered[i]
	}
	return self
}

// durations returns the duration of every closed span with the given name.
func durations(spans []span, name uint8) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == name && s.end != 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// childSum returns, for every closed root span named root, the summed
// duration of its direct children named child, and the child count.
func childSum(spans []span, root, child uint8) (sums []int64, counts []int) {
	idx := make(map[int32]int)
	for i, s := range spans {
		if s.name == root && s.end != 0 {
			idx[int32(i)] = len(sums)
			sums = append(sums, 0)
			counts = append(counts, 0)
		}
	}
	for _, s := range spans {
		if s.name != child || s.end == 0 {
			continue
		}
		if k, ok := idx[s.parent]; ok {
			sums[k] += s.end - s.start
			counts[k]++
		}
	}
	return sums, counts
}

// writeChromeTrace writes every tracer's spans as Chrome trace JSON
// ("X" complete events; ts and dur in microseconds), loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. The span index, its parent's index
// and the shared request id travel in args. The file holds each worker's
// first traceFileSpans spans; the metrics are computed over all of them.
func writeChromeTrace(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range tracers {
		for i, s := range t.spans[:min(len(t.spans), traceFileSpans)] {
			if s.end == 0 {
				continue
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"span":%d,"parent":%d}}`,
				spanNames[s.name], t.worker, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, i, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockCostNS measures what one begin/end pair costs, so a reader can
// discount it from the nanosecond-scale spans.
func clockCostNS() float64 {
	t := newTracer(time.Now(), 0, 1)
	defer t.release()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.spans = t.spans[:0]
		t.end(t.begin(spAttempt, -1, 0))
	}
	return float64(time.Since(start)) / n
}
