package server

import (
	"runtime"
	"testing"
)

// measureAllocsPerRequest drives count synchronous requests through fn and
// returns whole-process Mallocs per request. testing.AllocsPerRun only
// counts the calling goroutine, which would miss the server's reader and
// writer goroutines entirely — the gate must see those, so it reads
// runtime.MemStats around the loop instead.
func measureAllocsPerRequest(t *testing.T, count int, fn func(i int)) float64 {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < count; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(count)
}

// measureGateConfig runs the warmup + measurement protocol for one server
// config and returns steady-state allocs per GET and per SET request.
func measureGateConfig(t *testing.T, cfg Config) (perGet, perSet float64) {
	t.Helper()
	_, addr, stop := startServer(t, cfg)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var b Batch
	var r Reply
	val := []byte("0123456789abcdef")
	do := func(i int) {
		b.Reset()
		if i%2 == 0 {
			b.Set("gate", uint64(i%64), val)
		} else {
			b.Get("gate", uint64(i%64))
		}
		if err := c.Do(&b, &r); err != nil || !r.OK() {
			t.Fatalf("request %d: %v status %d", i, err, r.Status)
		}
	}

	// Warmup: populate keys, allocate predicates, grow every reusable
	// buffer and pool to steady state.
	for i := 0; i < 2000; i++ {
		do(i)
	}
	perGet = measureAllocsPerRequest(t, 4000, func(i int) { do(i*2 + 1) })
	perSet = measureAllocsPerRequest(t, 4000, func(i int) { do(i * 2) })
	return perGet, perSet
}

// TestServeRequestAllocGate enforces the steady-state request-path budget
// from DESIGN.md §15: after warmup, a simple single-op GET or SET batch
// costs at most 2 allocations end to end across the whole process (parser,
// conn loop, batch body, reply path, plus the client driving it). The gate
// runs on the boosted map namespace, where a SET's only intrinsic allocation
// is the value copy. Like TestAllocsPerTxnGate this is meaningless under the
// race detector's shadow allocations, so it skips there. Gate budgets carry
// 0.25 slack for runtime background allocation (GC assists, timer wheel)
// that whole-process MemStats cannot exclude.
func TestServeRequestAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: detector allocates shadow memory")
	}
	perGet, perSet := measureGateConfig(t, Config{Maps: "boosted"})
	t.Logf("boosted allocs/request: GET %.3f, SET %.3f", perGet, perSet)
	if perGet > 2.25 {
		t.Errorf("GET request path allocates %.3f/op, budget 2", perGet)
	}
	if perSet > 2.25 {
		t.Errorf("SET request path allocates %.3f/op, budget 2", perSet)
	}
}

// TestServeRequestAllocGatePredication pins the default (predication) map
// path: GET stays in the ≤2 budget; SET is gated at 2 — its value copy plus
// one cell, the single allocation of an stm.Ref write, which holds the
// predicate state and is published as the committed value as is. The cell
// belongs to the predication design point — the data lives inside STM
// references — not to server machinery; the server's own request path adds
// only the copy (see DESIGN.md §15).
func TestServeRequestAllocGatePredication(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: detector allocates shadow memory")
	}
	perGet, perSet := measureGateConfig(t, Config{Maps: "predication"})
	t.Logf("predication allocs/request: GET %.3f, SET %.3f", perGet, perSet)
	if perGet > 2.25 {
		t.Errorf("GET request path allocates %.3f/op, budget 2", perGet)
	}
	if perSet > 2.25 {
		t.Errorf("SET request path allocates %.3f/op, budget 2 (value copy + one cell)", perSet)
	}
}

// TestServeParserZeroAlloc pins the parser itself to zero steady-state
// allocations on the calling goroutine.
func TestServeParserZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	var b Batch
	b.Set("ns", 1, []byte("value")).Get("ns", 2).Incr("ns", 3, -7)
	// Finalize the header exactly as Client.Send would.
	b.payload[1] = 0
	b.payload[2] = byte(b.nops)

	ops := make([]wireOp, 0, 8)
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		ops, err = parseRequest(b.payload, ops)
		if err != nil || len(ops) != 3 {
			t.Fatalf("parse: %v, %d ops", err, len(ops))
		}
	})
	if allocs != 0 {
		t.Errorf("parseRequest allocates %.1f/op, want 0", allocs)
	}
}
