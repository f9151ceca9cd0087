package core

import (
	"proust/internal/stm"
)

// AbstractLock brackets base-object operations with conflict-abstraction
// accesses according to the design-space point (LAP × update strategy). It
// is the Go rendering of ScalaProust's AbstractLock (paper Listing 1).
//
// The wrappers use the closure-free bracket: begin1/begin2 acquire (or
// announce) the fixed-arity intents, the wrapper runs the base operation
// inline with typed arguments and results, records a typed undo record if
// eager, and done1/done2 perform the strategy's trailing accesses
// (Validate for eager — Theorem 5.2 — or the trailing reads of Theorem 5.3
// for lazy/optimistic). Apply/ApplyOp remain for operations whose intent
// sets are computed dynamically (range queries, state-dependent widening):
//
//	ret := al.Apply(tx, intents, op, inverse)
type AbstractLock[K comparable] struct {
	lap   LockAllocatorPolicy[K]
	strat UpdateStrategy

	// Instrumentation (nil when not attached; see Instrument).
	name    string
	sink    Sink
	hash    func(K) uint64
	pending *stm.Pooled[opTally]
}

// opTally counts per-operation executions of one attempt. An ADT wrapper has
// a handful of distinct operation names, so a fixed array with linear scan
// beats a map on the hot path (no hashing, no map allocation).
type opTally struct {
	names  [4]string
	counts [4]uint64
	n      int
	spill  map[string]uint64 // only for wrappers with >4 distinct ops
	// Flush hooks, created once per instance and re-registered per
	// transaction (they capture only the tally and its abstract lock).
	flushCommit func()
	flushAbort  func()
}

func (t *opTally) bump(op string) {
	for i := 0; i < t.n; i++ {
		if t.names[i] == op {
			t.counts[i]++
			return
		}
	}
	if t.n < len(t.names) {
		t.names[t.n] = op
		t.counts[t.n] = 1
		t.n++
		return
	}
	if t.spill == nil {
		t.spill = make(map[string]uint64, 4)
	}
	t.spill[op]++
}

func (t *opTally) flush(sink Sink, structure string, committed bool) {
	for i := 0; i < t.n; i++ {
		sink.OpOutcome(structure, t.names[i], committed, t.counts[i])
	}
	for op, n := range t.spill {
		sink.OpOutcome(structure, op, committed, n)
	}
}

// reset prepares a tally for pool residency (names dropped so pooled tallies
// pin no strings; the spill map keeps its buckets).
func (t *opTally) reset() {
	clear(t.names[:])
	clear(t.counts[:])
	t.n = 0
	clear(t.spill)
}

// NewAbstractLock creates an abstract lock for a design-space point.
func NewAbstractLock[K comparable](lap LockAllocatorPolicy[K], strat UpdateStrategy) *AbstractLock[K] {
	return &AbstractLock[K]{lap: lap, strat: strat}
}

// Instrument attaches ADT-level observability: per-operation commit/abort
// counts flow to sink under the structure name, and — when the transaction's
// STM is traced — each operation notes an (op, key-hash) record on the
// attempt via Txn.NoteOp (hash may be nil, zeroing key hashes). Call before
// the structure sees concurrent traffic; nil sink detaches the counters.
func (l *AbstractLock[K]) Instrument(name string, hash func(K) uint64, sink Sink) {
	l.name, l.hash, l.sink = name, hash, sink
	if sink == nil {
		l.pending = nil
		return
	}
	l.pending = stm.NewPooled(func(tx *stm.Txn, t *opTally) {
		if t.flushCommit == nil {
			t.flushCommit = func() {
				t.flush(l.sink, l.name, true)
				t.reset()
				l.pending.Release(t)
			}
			t.flushAbort = func() {
				t.flush(l.sink, l.name, false)
				t.reset()
				l.pending.Release(t)
			}
		}
		tx.OnCommit(t.flushCommit)
		tx.OnAbort(t.flushAbort)
	})
}

// Strategy returns the update strategy.
func (l *AbstractLock[K]) Strategy() UpdateStrategy { return l.strat }

// Optimistic reports whether the LAP delegates conflicts to the STM.
func (l *AbstractLock[K]) Optimistic() bool { return l.lap.Optimistic() }

// note attaches the operation label to the attempt's observability streams:
// the flight-recorder op notes when the STM is traced, and the per-op
// outcome tally when the structure is instrumented. With neither attached it
// costs two predictable branches.
func (l *AbstractLock[K]) note(tx *stm.Txn, opName string, firstKey K) {
	if opName == "" {
		return
	}
	if tx.Traced() {
		var kh uint64
		if l.hash != nil {
			kh = l.hash(firstKey)
		}
		tx.NoteOp(opName, kh)
	}
	if l.pending != nil {
		l.pending.Get(tx).bump(opName)
	}
}

// begin1 opens a single-intent operation: observability note plus the LAP's
// leading access. The intent is passed by value, so the wrapper's fast path
// builds no slice.
func (l *AbstractLock[K]) begin1(tx *stm.Txn, opName string, in Intent[K]) {
	l.note(tx, opName, in.Key)
	l.lap.PreOp1(tx, in)
}

// begin2 opens a two-intent operation (priority-queue inserts and removes).
func (l *AbstractLock[K]) begin2(tx *stm.Txn, opName string, a, b Intent[K]) {
	l.note(tx, opName, a.Key)
	l.lap.PreOp1(tx, a)
	l.lap.PreOp1(tx, b)
}

// done1 closes a single-intent operation after the base access (and, for
// eager wrappers, after its undo record is logged): Validate for the eager
// strategy, the trailing read of Theorem 5.3 for lazy/optimistic.
func (l *AbstractLock[K]) done1(tx *stm.Txn, in Intent[K]) {
	switch {
	case l.strat == Eager:
		l.lap.Validate1(tx, in)
	case l.lap.Optimistic():
		l.lap.PostOp1(tx, in)
	}
}

// done2 closes a two-intent operation; see done1.
func (l *AbstractLock[K]) done2(tx *stm.Txn, a, b Intent[K]) {
	switch {
	case l.strat == Eager:
		l.lap.Validate1(tx, a)
		l.lap.Validate1(tx, b)
	case l.lap.Optimistic():
		l.lap.PostOp1(tx, a)
		l.lap.PostOp1(tx, b)
	}
}

// Apply runs op under the conflict abstraction described by intents.
// inverse, if non-nil and the strategy is eager, is registered to undo op's
// effect when the transaction aborts; it receives op's return value.
// Inverses run in LIFO order on abort (the boosting discipline). The inverse
// is registered only once op returns, so op must make no STM access after
// its base mutation — an access that aborts the attempt there would leave
// the mutation without an inverse; the caller makes such accesses (a size
// update) after Apply returns.
func (l *AbstractLock[K]) Apply(tx *stm.Txn, intents []Intent[K], op func() any, inverse func(any)) any {
	return l.ApplyOp(tx, "", intents, op, inverse)
}

// ApplyOp is Apply with an ADT operation label for observability. It is the
// dynamic-intent path; wrappers with fixed-arity intents use the
// begin/done bracket instead, which allocates neither the intent slice nor
// the op and inverse closures.
func (l *AbstractLock[K]) ApplyOp(tx *stm.Txn, opName string, intents []Intent[K], op func() any, inverse func(any)) any {
	if len(intents) > 0 {
		l.note(tx, opName, intents[0].Key)
	} else {
		var zero K
		l.note(tx, opName, zero)
	}
	l.lap.PreOp(tx, intents)
	ret := op()
	switch {
	case l.strat == Eager:
		if inverse != nil {
			tx.OnAbort(func() { inverse(ret) })
		}
		// Re-validate before the result escapes (Theorem 5.2); a no-op
		// under pessimistic locks.
		l.lap.Validate(tx, intents)
	case l.lap.Optimistic():
		// Trailing reads of Theorem 5.3.
		l.lap.PostOp(tx, intents)
	}
	return ret
}
