package core

import (
	"proust/internal/stm"
)

// AbstractLock brackets base-object operations with conflict-abstraction
// accesses. It is the Go rendering of ScalaProust's AbstractLock (paper
// Listing 1), and the bracket is the only way a wrapper touches its
// conflict abstraction:
//
//	al.begin1(tx, "op", in) // LAP PreOp on each intent
//	ret := base.Op(...)     // the base operation, inline and typed
//	undo.record(tx, ...)    // eager wrappers: the inverse, logged at once
//	al.done1(tx, in)        // LAP PostOp on each intent
//
// The update strategy does not appear: an eager wrapper logs undo records,
// a lazy one routes its operations through a SnapshotLog, and the LAP's
// PostOp is the trailing access both strategies need.
type AbstractLock[K comparable] struct {
	lap LockAllocatorPolicy[K]

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

// NewAbstractLock creates an abstract lock over a LAP.
func NewAbstractLock[K comparable](lap LockAllocatorPolicy[K]) *AbstractLock[K] {
	return &AbstractLock[K]{lap: lap}
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
// leading access. The intent is passed by value, so the wrapper builds no
// slice.
func (l *AbstractLock[K]) begin1(tx *stm.Txn, opName string, in Intent[K]) {
	l.note(tx, opName, in.Key)
	l.lap.PreOp(tx, in)
}

// begin2 opens a two-intent operation (priority-queue inserts and removes,
// deque operations widened to both ends).
func (l *AbstractLock[K]) begin2(tx *stm.Txn, opName string, a, b Intent[K]) {
	l.note(tx, opName, a.Key)
	l.lap.PreOp(tx, a)
	l.lap.PreOp(tx, b)
}

// done1 closes a single-intent operation after the base access (and, for
// eager wrappers, after its undo record is logged) with the LAP's trailing
// access.
func (l *AbstractLock[K]) done1(tx *stm.Txn, in Intent[K]) {
	l.lap.PostOp(tx, in)
}

// done2 closes a two-intent operation; see done1.
func (l *AbstractLock[K]) done2(tx *stm.Txn, a, b Intent[K]) {
	l.lap.PostOp(tx, a)
	l.lap.PostOp(tx, b)
}
