package core

import (
	"math/bits"

	"proust/internal/conc"
	"proust/internal/stm"
)

// Entry is one key-value pair returned by a range query.
type Entry[K comparable, V any] struct {
	Key K
	Val V
}

// OrderedMap is an eager Proustian ordered map with a *range* conflict
// abstraction — the paper's very first example of semantic commutativity:
// "in a map, queries and updates to non-intersecting key ranges commute"
// (Section 1). The ordered key space is embedded into [0, 2^indexBits) by a
// monotone index function and divided into contiguous stripes; a point
// operation takes an intent on its key's stripe, and a range query takes
// read intents on every stripe its interval touches. Updates inside a
// queried interval therefore conflict with the query, while updates outside
// it (up to stripe granularity) commute with it.
type OrderedMap[K comparable, V any] struct {
	al      *AbstractLock[int]
	base    *conc.SkipListMap[K, V]
	cmp     func(a, b K) int
	index   func(K) uint64
	shift   uint
	stripes int
	undo    *txnUndo[K, V]
}

// NewOrderedMap creates an ordered Proustian map.
//
// cmp orders keys; index embeds them monotonically into [0, 2^indexBits)
// (cmp(a,b) < 0 must imply index(a) <= index(b)); the key space is divided
// into stripeCount contiguous stripes (rounded up to a power of two, at
// most 2^indexBits).
func NewOrderedMap[K comparable, V any](
	s *stm.STM,
	lap LockAllocatorPolicy[int],
	cmp func(a, b K) int,
	index func(K) uint64,
	indexBits uint,
	stripeCount int,
) *OrderedMap[K, V] {
	if stripeCount < 1 {
		stripeCount = 1
	}
	n := 1
	for n < stripeCount {
		n <<= 1
	}
	logN := uint(bits.TrailingZeros(uint(n)))
	if logN > indexBits {
		logN = indexBits
		n = 1 << indexBits
	}
	base := conc.NewSkipListMap[K, V](cmp)
	return &OrderedMap[K, V]{
		al:      NewAbstractLock(lap),
		base:    base,
		cmp:     cmp,
		index:   index,
		shift:   indexBits - logN,
		stripes: n,
		undo:    newBindingUndo[K, V](s, base),
	}
}

// Stripes returns the number of conflict-abstraction stripes.
func (m *OrderedMap[K, V]) Stripes() int { return m.stripes }

func (m *OrderedMap[K, V]) stripe(k K) int {
	st := int(m.index(k) >> m.shift)
	if st >= m.stripes {
		st = m.stripes - 1
	}
	return st
}

// Get returns the value stored under k.
func (m *OrderedMap[K, V]) Get(tx *stm.Txn, k K) (V, bool) {
	in := R(m.stripe(k))
	m.al.begin1(tx, "get", in)
	v, ok := m.base.Get(k)
	m.al.done1(tx, in)
	return v, ok
}

// Contains reports whether k is present.
func (m *OrderedMap[K, V]) Contains(tx *stm.Txn, k K) bool {
	_, ok := m.Get(tx, k)
	return ok
}

// Put stores v under k, returning the previous value if any.
func (m *OrderedMap[K, V]) Put(tx *stm.Txn, k K, v V) (V, bool) {
	in := W(m.stripe(k))
	m.al.begin1(tx, "put", in)
	old, had := m.base.Put(k, v)
	m.undo.record(tx, undoRec[K, V]{key: k, val: old, had: had})
	if !had {
		m.undo.resize(tx, 1)
	}
	m.al.done1(tx, in)
	return old, had
}

// Remove deletes k, returning the previous value if any.
func (m *OrderedMap[K, V]) Remove(tx *stm.Txn, k K) (V, bool) {
	in := W(m.stripe(k))
	m.al.begin1(tx, "remove", in)
	old, had := m.base.Remove(k)
	if had {
		m.undo.record(tx, undoRec[K, V]{key: k, val: old, had: true})
		m.undo.resize(tx, -1)
	}
	m.al.done1(tx, in)
	return old, had
}

// RangeQuery returns the entries with lo <= key <= hi in ascending order.
// It takes a read intent on every stripe the interval touches (the index is
// monotone, so those are stripe(lo) through stripe(hi)): it conflicts
// exactly with updates whose keys fall into the queried stripes, and
// commutes with everything else.
func (m *OrderedMap[K, V]) RangeQuery(tx *stm.Txn, lo, hi K) []Entry[K, V] {
	if m.cmp(lo, hi) > 0 {
		return nil
	}
	from, to := m.stripe(lo), m.stripe(hi)
	op := "rangeQuery"
	for st := from; st <= to; st++ {
		m.al.begin1(tx, op, R(st))
		op = ""
	}
	var out []Entry[K, V]
	m.base.RangeBetween(lo, hi, func(k K, v V) bool {
		out = append(out, Entry[K, V]{Key: k, Val: v})
		return true
	})
	for st := from; st <= to; st++ {
		m.al.done1(tx, R(st))
	}
	return out
}

// Size returns the committed size.
func (m *OrderedMap[K, V]) Size(tx *stm.Txn) int {
	return m.undo.sizeOf(tx)
}
