package verify

import (
	"fmt"
	"sort"
)

// --- Non-negative counter (paper Section 3) -------------------------------

// counterOp is an operation on the counter model.
type counterOp string

const (
	opIncr counterOp = "incr"
	opDecr counterOp = "decr"
)

// counterResult is a decr outcome; incr returns unit (nil).
type counterResult struct {
	Err bool
}

// CounterModel is the paper's non-negative counter with the single-location
// conflict abstraction: incr reads l0 whenever the counter is below the
// threshold, decr writes l0 whenever the counter is below the threshold.
// The paper's threshold is 2; other values let tests demonstrate unsound
// abstractions.
type CounterModel struct {
	Max       int
	Threshold int
}

var _ Model = CounterModel{}

// NewCounterModel builds the paper's counter with threshold 2, bounded at
// max.
func NewCounterModel(max int) CounterModel {
	return CounterModel{Max: max, Threshold: 2}
}

// Name implements Model.
func (c CounterModel) Name() string {
	return fmt.Sprintf("nncounter(max=%d,threshold=%d)", c.Max, c.Threshold)
}

// States implements Model.
func (c CounterModel) States() []any {
	out := make([]any, 0, c.Max+1)
	for v := 0; v <= c.Max; v++ {
		out = append(out, v)
	}
	return out
}

// Ops implements Model.
func (c CounterModel) Ops() []any {
	return []any{opIncr, opDecr}
}

// OpName implements Model.
func (c CounterModel) OpName(op any) string { return string(op.(counterOp)) }

// Apply implements Model. Max only bounds the enumerated pre-states;
// intermediate states may exceed it (saturating at the bound would fabricate
// non-commutativity that the real unbounded counter does not have).
func (c CounterModel) Apply(s, op any) (any, any) {
	v := s.(int)
	switch op.(counterOp) {
	case opIncr:
		return v + 1, nil
	case opDecr:
		if v == 0 {
			return v, counterResult{Err: true}
		}
		return v - 1, counterResult{}
	}
	return v, nil
}

// CA implements Model: the single-location abstraction of Section 3.
func (c CounterModel) CA(op, s any) []Access {
	v := s.(int)
	if v >= c.Threshold {
		return nil
	}
	switch op.(counterOp) {
	case opIncr:
		return []Access{{Loc: 0, Write: false}}
	case opDecr:
		return []Access{{Loc: 0, Write: true}}
	}
	return nil
}

// --- Bounded map -----------------------------------------------------------

// mapOp is an operation on the bounded map model.
type mapOp struct {
	Kind string // "get", "put", "remove"
	K    int
	V    int
}

// mapResult is an operation's return value (previous mapping).
type mapResult struct {
	Val int
	Had bool
}

// mapState is the bounded map state: Vals[k] is the value for key k, or -1
// when absent. Arrays keep the state comparable.
type mapState struct {
	Vals [3]int
}

// MapModel is a bounded map (3 keys × Vals values) with the per-key
// conflict abstraction: get(k) reads location k mod M, put/remove(k) write
// it — the hash-map example of Section 3. M below the key count exercises
// the striped (sound but imprecise) regime.
type MapModel struct {
	Vals int // values per key: 0..Vals-1
	M    int // number of locations
	// DropReads simulates a broken abstraction where get performs no
	// access; used by negative tests.
	DropReads bool
}

var _ Model = MapModel{}

// NewMapModel builds a sound per-key map abstraction.
func NewMapModel(vals, m int) MapModel {
	return MapModel{Vals: vals, M: m}
}

// Name implements Model.
func (mm MapModel) Name() string {
	suffix := ""
	if mm.DropReads {
		suffix = ",broken"
	}
	return fmt.Sprintf("map(keys=3,vals=%d,M=%d%s)", mm.Vals, mm.M, suffix)
}

// States implements Model.
func (mm MapModel) States() []any {
	var out []any
	domain := make([]int, 0, mm.Vals+1)
	domain = append(domain, -1)
	for v := 0; v < mm.Vals; v++ {
		domain = append(domain, v)
	}
	for _, a := range domain {
		for _, b := range domain {
			for _, c := range domain {
				out = append(out, mapState{Vals: [3]int{a, b, c}})
			}
		}
	}
	return out
}

// Ops implements Model.
func (mm MapModel) Ops() []any {
	var out []any
	for k := 0; k < 3; k++ {
		out = append(out, mapOp{Kind: "get", K: k})
		out = append(out, mapOp{Kind: "remove", K: k})
		for v := 0; v < mm.Vals; v++ {
			out = append(out, mapOp{Kind: "put", K: k, V: v})
		}
	}
	return out
}

// OpName implements Model.
func (mm MapModel) OpName(op any) string {
	o := op.(mapOp)
	if o.Kind == "put" {
		return fmt.Sprintf("put(%d,%d)", o.K, o.V)
	}
	return fmt.Sprintf("%s(%d)", o.Kind, o.K)
}

// Apply implements Model.
func (mm MapModel) Apply(s, op any) (any, any) {
	st := s.(mapState)
	o := op.(mapOp)
	old := st.Vals[o.K]
	res := mapResult{Val: old, Had: old >= 0}
	if !res.Had {
		res.Val = 0
	}
	switch o.Kind {
	case "put":
		st.Vals[o.K] = o.V
	case "remove":
		st.Vals[o.K] = -1
	}
	return st, res
}

// CA implements Model.
func (mm MapModel) CA(op, _ any) []Access {
	o := op.(mapOp)
	if o.Kind == "get" && mm.DropReads {
		return nil
	}
	return []Access{{Loc: o.K % mm.M, Write: o.Kind != "get"}}
}

// --- Bounded FIFO queue ------------------------------------------------

// fqOp is an operation on the FIFO queue model.
type fqOp struct {
	Kind string // "enq", "deq", "peek"
	V    int
}

// fqState is a bounded FIFO queue; Elems[0] is the head, -1 marks empty
// slots.
type fqState struct {
	Elems [3]int
	N     int
}

// fqResult carries deq/peek outcomes.
type fqResult struct {
	Val  int
	OK   bool
	Full bool
}

// FIFO queue conflict-abstraction locations.
const (
	fqLocHead = iota
	fqLocTail
)

// QueueModel is a bounded FIFO queue with the QHead/QTail abstract-state
// conflict abstraction of internal/core's Queue, which is the
// pushBack/popFront/peekFront subset of the deque (DequeModel with
// PopThreshold 1):
//
//	enq(v): write(Tail); plus write(Head) when the queue is empty
//	deq():  write(Head); plus write(Tail) when N <= 1
//	peek(): read(Head)
//
// Check and CheckSAT find the abstraction sound with or without the deq
// widening: Definition 3.1 is checked pairwise, and the unsound history it
// prevents needs three operations (an enq into a one-element queue, then
// one transaction's deq, deq, which reaches the enqueued element while the
// enq is uncommitted).
//
// DropEmptyUpgrade simulates the broken variant where enq never takes the
// Head write even when enqueueing into an empty queue.
type QueueModel struct {
	Vals             int
	DropEmptyUpgrade bool
}

var _ Model = QueueModel{}

// NewQueueModel builds the sound queue abstraction.
func NewQueueModel(vals int) QueueModel {
	return QueueModel{Vals: vals}
}

// Name implements Model.
func (qm QueueModel) Name() string {
	suffix := ""
	if qm.DropEmptyUpgrade {
		suffix = ",broken"
	}
	return fmt.Sprintf("queue(cap=3,vals=%d%s)", qm.Vals, suffix)
}

// States implements Model. Enumerated pre-states leave one slot of
// headroom: a full bounded queue rejects enqueues, a non-commutativity the
// real unbounded queue does not have, so full states only ever appear as
// intermediate states of enqueue/enqueue pairs (which conflict on the tail
// regardless).
func (qm QueueModel) States() []any {
	seen := make(map[fqState]bool)
	var out []any
	var rec func(st fqState)
	rec = func(st fqState) {
		if seen[st] {
			return
		}
		seen[st] = true
		out = append(out, st)
		if st.N >= len(st.Elems)-1 {
			return
		}
		for v := 0; v < qm.Vals; v++ {
			next := st
			next.Elems[next.N] = v
			next.N++
			rec(next)
		}
	}
	rec(fqState{Elems: [3]int{-1, -1, -1}})
	return out
}

// Ops implements Model.
func (qm QueueModel) Ops() []any {
	out := []any{fqOp{Kind: "deq"}, fqOp{Kind: "peek"}}
	for v := 0; v < qm.Vals; v++ {
		out = append(out, fqOp{Kind: "enq", V: v})
	}
	return out
}

// OpName implements Model.
func (qm QueueModel) OpName(op any) string {
	o := op.(fqOp)
	if o.Kind == "enq" {
		return fmt.Sprintf("enq(%d)", o.V)
	}
	return o.Kind
}

// Apply implements Model.
func (qm QueueModel) Apply(s, op any) (any, any) {
	st := s.(fqState)
	o := op.(fqOp)
	switch o.Kind {
	case "enq":
		if st.N == len(st.Elems) {
			return st, fqResult{Full: true}
		}
		st.Elems[st.N] = o.V
		st.N++
		return st, fqResult{OK: true}
	case "deq":
		if st.N == 0 {
			return st, fqResult{}
		}
		head := st.Elems[0]
		copy(st.Elems[:], st.Elems[1:])
		st.Elems[st.N-1] = -1
		st.N--
		return st, fqResult{Val: head, OK: true}
	case "peek":
		if st.N == 0 {
			return st, fqResult{}
		}
		return st, fqResult{Val: st.Elems[0], OK: true}
	}
	return st, nil
}

// CA implements Model.
func (qm QueueModel) CA(op, s any) []Access {
	st := s.(fqState)
	o := op.(fqOp)
	switch o.Kind {
	case "enq":
		out := []Access{{Loc: fqLocTail, Write: true}}
		if !qm.DropEmptyUpgrade && st.N == 0 {
			out = append(out, Access{Loc: fqLocHead, Write: true})
		}
		return out
	case "deq":
		out := []Access{{Loc: fqLocHead, Write: true}}
		if st.N <= 1 {
			out = append(out, Access{Loc: fqLocTail, Write: true})
		}
		return out
	case "peek":
		return []Access{{Loc: fqLocHead, Write: false}}
	}
	return nil
}

// --- Bounded priority queue ------------------------------------------------

// pqOp is an operation on the priority-queue model.
type pqOp struct {
	Kind string // "insert", "removeMin", "min", "contains"
	V    int
}

// pqState is a bounded multiset, kept sorted ascending; -1 marks empty
// slots. Arrays keep the state comparable.
type pqState struct {
	Elems [3]int
	N     int
}

// pqResult carries min/removeMin/contains outcomes.
type pqResult struct {
	Val  int
	OK   bool
	Full bool
}

// PQueueLocs are the conflict-abstraction locations of the priority queue.
const (
	pqLocMin = iota
	pqLocMultiSet
)

// PQueueModel is a bounded priority queue (≤3 elements, values 0..Vals-1)
// with the PQueueMin/PQueueMultiSet abstract-state conflict abstraction of
// paper Listing 3/Figure 3:
//
//	insert(v):   write(MultiSet); v < current min (or empty) ? write(Min) : read(Min)
//	removeMin(): write(Min), write(MultiSet)
//	min():       read(Min)
//	contains(v): read(MultiSet)
//
// DropMinUpgrade simulates the broken variant where insert always only
// reads Min, even when it changes the minimum.
type PQueueModel struct {
	Vals           int
	DropMinUpgrade bool
}

var _ Model = PQueueModel{}

// NewPQueueModel builds the sound Figure 3 abstraction.
func NewPQueueModel(vals int) PQueueModel {
	return PQueueModel{Vals: vals}
}

// Name implements Model.
func (pm PQueueModel) Name() string {
	suffix := ""
	if pm.DropMinUpgrade {
		suffix = ",broken"
	}
	return fmt.Sprintf("pqueue(cap=3,vals=%d%s)", pm.Vals, suffix)
}

// States implements Model.
func (pm PQueueModel) States() []any {
	seen := make(map[pqState]bool)
	var out []any
	var rec func(st pqState)
	rec = func(st pqState) {
		if seen[st] {
			return
		}
		seen[st] = true
		out = append(out, st)
		if st.N == len(st.Elems) {
			return
		}
		for v := 0; v < pm.Vals; v++ {
			rec(pqInsertState(st, v))
		}
	}
	rec(pqEmptyState())
	return out
}

func pqEmptyState() pqState {
	return pqState{Elems: [3]int{-1, -1, -1}}
}

func pqInsertState(st pqState, v int) pqState {
	if st.N == len(st.Elems) {
		return st
	}
	vals := make([]int, 0, st.N+1)
	for i := 0; i < st.N; i++ {
		vals = append(vals, st.Elems[i])
	}
	vals = append(vals, v)
	sort.Ints(vals)
	next := pqEmptyState()
	for i, x := range vals {
		next.Elems[i] = x
	}
	next.N = len(vals)
	return next
}

// Ops implements Model.
func (pm PQueueModel) Ops() []any {
	out := []any{pqOp{Kind: "removeMin"}, pqOp{Kind: "min"}}
	for v := 0; v < pm.Vals; v++ {
		out = append(out, pqOp{Kind: "insert", V: v})
		out = append(out, pqOp{Kind: "contains", V: v})
	}
	return out
}

// OpName implements Model.
func (pm PQueueModel) OpName(op any) string {
	o := op.(pqOp)
	switch o.Kind {
	case "insert", "contains":
		return fmt.Sprintf("%s(%d)", o.Kind, o.V)
	default:
		return o.Kind
	}
}

// Apply implements Model.
func (pm PQueueModel) Apply(s, op any) (any, any) {
	st := s.(pqState)
	o := op.(pqOp)
	switch o.Kind {
	case "insert":
		if st.N == len(st.Elems) {
			return st, pqResult{Full: true}
		}
		return pqInsertState(st, o.V), pqResult{OK: true}
	case "removeMin":
		if st.N == 0 {
			return st, pqResult{}
		}
		next := pqEmptyState()
		for i := 1; i < st.N; i++ {
			next.Elems[i-1] = st.Elems[i]
		}
		next.N = st.N - 1
		return next, pqResult{Val: st.Elems[0], OK: true}
	case "min":
		if st.N == 0 {
			return st, pqResult{}
		}
		return st, pqResult{Val: st.Elems[0], OK: true}
	case "contains":
		for i := 0; i < st.N; i++ {
			if st.Elems[i] == o.V {
				return st, pqResult{OK: true}
			}
		}
		return st, pqResult{}
	}
	return st, nil
}

// CA implements Model.
func (pm PQueueModel) CA(op, s any) []Access {
	st := s.(pqState)
	o := op.(pqOp)
	switch o.Kind {
	case "insert":
		minAccess := Access{Loc: pqLocMin, Write: false}
		if !pm.DropMinUpgrade && (st.N == 0 || o.V < st.Elems[0]) {
			minAccess.Write = true
		}
		return []Access{{Loc: pqLocMultiSet, Write: true}, minAccess}
	case "removeMin":
		return []Access{{Loc: pqLocMin, Write: true}, {Loc: pqLocMultiSet, Write: true}}
	case "min":
		return []Access{{Loc: pqLocMin, Write: false}}
	case "contains":
		return []Access{{Loc: pqLocMultiSet, Write: false}}
	}
	return nil
}
