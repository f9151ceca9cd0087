package conc

import (
	"sync/atomic"
)

// COWHeap is a thread-safe priority queue with constant-time snapshots,
// built from a persistent (immutable) leftist heap published through an
// atomic root pointer. Updates build a new version sharing structure with
// the old one and install it with compare-and-swap; Snapshot simply loads
// the current version.
//
// The paper notes that no concurrent heaps with efficient snapshots were
// publicly available, so ScalaProust "contains an experimental
// implementation that uses copy-on-write semantics" — this is the Go
// equivalent, used as the base structure of the lazy Proustian priority
// queue.
type COWHeap[V any] struct {
	less Less[V]
	root atomic.Pointer[heapVersion[V]]
}

type heapVersion[V any] struct {
	node *heapNode[V]
	size int
}

type heapNode[V any] struct {
	value V
	rank  int
	left  *heapNode[V]
	right *heapNode[V]
}

// NewCOWHeap creates an empty heap ordered by less.
func NewCOWHeap[V any](less Less[V]) *COWHeap[V] {
	h := &COWHeap[V]{less: less}
	h.root.Store(&heapVersion[V]{})
	return h
}

// Insert adds v.
func (h *COWHeap[V]) Insert(v V) {
	n := &heapNode[V]{value: v, rank: 1}
	for {
		cur := h.root.Load()
		next := &heapVersion[V]{node: mergeHeap(h.less, cur.node, n), size: cur.size + 1}
		if h.root.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Min returns the smallest value without removing it.
func (h *COWHeap[V]) Min() (V, bool) {
	cur := h.root.Load()
	if cur.node == nil {
		var zero V
		return zero, false
	}
	return cur.node.value, true
}

// RemoveMin removes and returns the smallest value.
func (h *COWHeap[V]) RemoveMin() (V, bool) {
	for {
		cur := h.root.Load()
		if cur.node == nil {
			var zero V
			return zero, false
		}
		next := &heapVersion[V]{
			node: mergeHeap(h.less, cur.node.left, cur.node.right),
			size: cur.size - 1,
		}
		if h.root.CompareAndSwap(cur, next) {
			return cur.node.value, true
		}
	}
}

// Len returns the current size.
func (h *COWHeap[V]) Len() int {
	return h.root.Load().size
}

// Contains reports whether some value equals v under eq (O(n) walk of the
// current version).
func (h *COWHeap[V]) Contains(v V, eq func(a, b V) bool) bool {
	return heapContains(h.root.Load().node, v, eq)
}

// Snapshot returns an O(1) snapshot supporting single-owner mutation. The
// snapshot shares structure with the heap but never affects it, unless the
// heap adopts it.
func (h *COWHeap[V]) Snapshot() *HeapSnapshot[V] {
	cur := h.root.Load()
	return &HeapSnapshot[V]{less: h.less, src: cur, node: cur.node, size: cur.size}
}

// Adopt makes s's contents the heap's, in O(1): a compare-and-swap from the
// version s was taken from to s's. It panics if the heap has moved on from
// that version. s must not be used afterwards.
func (h *COWHeap[V]) Adopt(s *HeapSnapshot[V]) {
	if !h.root.CompareAndSwap(s.src, &heapVersion[V]{node: s.node, size: s.size}) {
		panic("conc: Adopt of a heap snapshot whose source has changed since")
	}
	s.src = nil
}

// HeapSnapshot is a mutable single-owner view over a persistent heap
// version. It is not safe for concurrent use; Proust uses one per
// transaction as the shadow copy.
type HeapSnapshot[V any] struct {
	less Less[V]
	src  *heapVersion[V] // the version the snapshot was taken from
	node *heapNode[V]
	size int
}

// Insert adds v to the snapshot.
func (s *HeapSnapshot[V]) Insert(v V) {
	s.node = mergeHeap(s.less, s.node, &heapNode[V]{value: v, rank: 1})
	s.size++
}

// Min returns the smallest value in the snapshot.
func (s *HeapSnapshot[V]) Min() (V, bool) {
	if s.node == nil {
		var zero V
		return zero, false
	}
	return s.node.value, true
}

// RemoveMin removes and returns the smallest value in the snapshot.
func (s *HeapSnapshot[V]) RemoveMin() (V, bool) {
	if s.node == nil {
		var zero V
		return zero, false
	}
	v := s.node.value
	s.node = mergeHeap(s.less, s.node.left, s.node.right)
	s.size--
	return v, true
}

// Len returns the snapshot size.
func (s *HeapSnapshot[V]) Len() int { return s.size }

// Contains reports whether some value equals v under eq.
func (s *HeapSnapshot[V]) Contains(v V, eq func(a, b V) bool) bool {
	return heapContains(s.node, v, eq)
}

// mergeHeap merges two persistent leftist heaps without mutating either.
func mergeHeap[V any](less Less[V], a, b *heapNode[V]) *heapNode[V] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if less(b.value, a.value) {
		a, b = b, a
	}
	merged := mergeHeap(less, a.right, b)
	left, right := a.left, merged
	if heapRank(left) < heapRank(right) {
		left, right = right, left
	}
	return &heapNode[V]{
		value: a.value,
		rank:  heapRank(right) + 1,
		left:  left,
		right: right,
	}
}

func heapRank[V any](n *heapNode[V]) int {
	if n == nil {
		return 0
	}
	return n.rank
}

func heapContains[V any](n *heapNode[V], v V, eq func(a, b V) bool) bool {
	if n == nil {
		return false
	}
	if eq(n.value, v) {
		return true
	}
	return heapContains(n.left, v, eq) || heapContains(n.right, v, eq)
}
