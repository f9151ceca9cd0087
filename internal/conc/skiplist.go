package conc

import (
	"sync"
	"sync/atomic"
)

const skipMaxLevel = 24

// SkipListMap is a thread-safe ordered map implemented as a lazy skip list
// (Herlihy, Lev, Luchangco, Shavit): lookups are lock-free, updates lock
// only the predecessor nodes and validate before linking. It backs the
// ordered Proustian Set.
type SkipListMap[K any, V any] struct {
	cmp  func(a, b K) int
	head *skipNode[K, V]
	tail *skipNode[K, V]
	size atomic.Int64
	seed atomic.Uint64
	// ebr is the map's reclamation domain and handles its cache of
	// slHandles: removed nodes and displaced value boxes are retired
	// through them and reused once no traversal can still observe them.
	ebr     *ebr
	handles sync.Pool
}

type skipNode[K any, V any] struct {
	key      K
	sentinel int8 // -1 head, +1 tail, 0 regular
	value    atomic.Pointer[box[V]]
	next     []atomic.Pointer[skipNode[K, V]]
	topLayer int

	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool
}

type box[V any] struct{ v V }

// NewSkipListMap creates a map ordered by cmp (negative, zero, positive for
// a<b, a==b, a>b).
func NewSkipListMap[K any, V any](cmp func(a, b K) int) *SkipListMap[K, V] {
	head := newSkipNode[K, V](skipMaxLevel - 1)
	tail := newSkipNode[K, V](skipMaxLevel - 1)
	head.sentinel = -1
	tail.sentinel = 1
	head.fullyLinked.Store(true)
	tail.fullyLinked.Store(true)
	for i := range head.next {
		head.next[i].Store(tail)
	}
	m := &SkipListMap[K, V]{cmp: cmp, head: head, tail: tail, ebr: new(ebr)}
	m.handles.New = func() any {
		h := new(slHandle[K, V])
		h.participant = join(m.ebr, h)
		return h
	}
	m.seed.Store(0x2545f4914f6cdd1d)
	return m
}

func newSkipNode[K any, V any](topLayer int) *skipNode[K, V] {
	return &skipNode[K, V]{
		next:     make([]atomic.Pointer[skipNode[K, V]], topLayer+1),
		topLayer: topLayer,
	}
}

// reset clears a node whose grace period has elapsed for reuse; the flags
// too, so a recycled node is never momentarily visible as fullyLinked.
func (n *skipNode[K, V]) reset() {
	var zk K
	n.key = zk
	n.value.Store(nil)
	for i := range n.next {
		n.next[i].Store(nil)
	}
	n.marked.Store(false)
	n.fullyLinked.Store(false)
}

// Every public operation borrows an slHandle and pins it for the duration
// of its traversal: the skiplist's lock-free readers (Get, Range, findNode)
// may still be walking a node after its unlink, which is exactly the window
// the grace period covers. Node freelists are level-classed (a node's next
// array has topLayer+1 slots), like the Ctrie's CNode length classes; value
// boxes get their own, since Put-over-existing displaces one box per update.
const (
	// Per-level node freelist cap. Levels are geometric (p = 1/2), so the
	// low classes see nearly all the traffic.
	slNodeCap = 512
	// Value-box freelist cap.
	slBoxCap = 1024
)

// slBin is one cohort of retired skiplist memory.
type slBin[K any, V any] struct {
	nodes []*skipNode[K, V]
	boxes []*box[V]
}

// slHandle is one participant's view of a map's reclamation domain.
type slHandle[K any, V any] struct {
	participant
	bins  epochBins[slBin[K, V]]
	nodes [skipMaxLevel]freeList[skipNode[K, V]]
	boxes freeList[box[V]]
}

// handle borrows a pinned handle; release unpins and returns it.
func (m *SkipListMap[K, V]) handle() *slHandle[K, V] {
	h := m.handles.Get().(*slHandle[K, V])
	if h.pin() {
		h.bins.expire(h.epoch(), h.drain)
	}
	return h
}

func (m *SkipListMap[K, V]) release(h *slHandle[K, V]) {
	h.unpin()
	m.handles.Put(h)
}

// newNode returns a node with topLayer+1 next slots, recycled if possible;
// the caller overwrites key, value and next before publication.
func (h *slHandle[K, V]) newNode(topLayer int) *skipNode[K, V] {
	if n := h.nodes[topLayer].pop(); n != nil {
		return n
	}
	return newSkipNode[K, V](topLayer)
}

func (h *slHandle[K, V]) newBox(v V) *box[V] {
	if b := h.boxes.pop(); b != nil {
		b.v = v
		return b
	}
	return &box[V]{v: v}
}

func (h *slHandle[K, V]) retireNode(n *skipNode[K, V]) {
	b := h.bins.at(h.epoch(), h.drain)
	b.nodes = append(b.nodes, n)
}

func (h *slHandle[K, V]) retireBox(bx *box[V]) {
	b := h.bins.at(h.epoch(), h.drain)
	b.boxes = append(b.boxes, bx)
}

// drain moves an aged-out cohort to the freelists.
func (h *slHandle[K, V]) drain(b *slBin[K, V]) {
	for i, n := range b.nodes {
		if h.nodes[n.topLayer].push(n, slNodeCap) {
			n.reset()
		}
		b.nodes[i] = nil
	}
	for i, bx := range b.boxes {
		if h.boxes.push(bx, slBoxCap) {
			var zv V
			bx.v = zv
		}
		b.boxes[i] = nil
	}
	b.nodes = b.nodes[:0]
	b.boxes = b.boxes[:0]
}

// compareNode orders a key against a node, treating sentinels as ±infinity.
func (m *SkipListMap[K, V]) compareNode(k K, n *skipNode[K, V]) int {
	switch n.sentinel {
	case -1:
		return 1
	case 1:
		return -1
	default:
		return m.cmp(k, n.key)
	}
}

// findNode fills preds/succs per layer and returns the highest layer at
// which a node with the key was found, or -1.
func (m *SkipListMap[K, V]) findNode(k K, preds, succs []*skipNode[K, V]) int {
	found := -1
	pred := m.head
	for layer := skipMaxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for m.compareNode(k, curr) > 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
		if found == -1 && m.compareNode(k, curr) == 0 {
			found = layer
		}
		preds[layer] = pred
		succs[layer] = curr
	}
	return found
}

// Get returns the value mapped to k.
func (m *SkipListMap[K, V]) Get(k K) (V, bool) {
	h := m.handle()
	defer m.release(h)
	var preds, succs [skipMaxLevel]*skipNode[K, V]
	found := m.findNode(k, preds[:], succs[:])
	if found == -1 {
		var zero V
		return zero, false
	}
	n := succs[found]
	if n.fullyLinked.Load() && !n.marked.Load() {
		return n.value.Load().v, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (m *SkipListMap[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v under k and returns the previous value, if any.
func (m *SkipListMap[K, V]) Put(k K, v V) (V, bool) {
	h := m.handle()
	defer m.release(h)
	var preds, succs [skipMaxLevel]*skipNode[K, V]
	for {
		found := m.findNode(k, preds[:], succs[:])
		if found != -1 {
			n := succs[found]
			if !n.marked.Load() {
				for !n.fullyLinked.Load() {
					procSpin()
				}
				// Lock the node so a concurrent Remove cannot discard the
				// update unnoticed.
				n.mu.Lock()
				if n.marked.Load() {
					n.mu.Unlock()
					continue
				}
				old := n.value.Swap(h.newBox(v))
				n.mu.Unlock()
				ov := old.v
				// The displaced box may still be read by a concurrent Get
				// that loaded it before the swap; retire it through the
				// epoch bins rather than dropping it to the GC.
				h.retireBox(old)
				return ov, true
			}
			continue // being removed: retry
		}

		topLayer := m.randomLevel()
		highestLocked := -1
		valid := true
		var prevPred *skipNode[K, V]
		for layer := 0; valid && layer <= topLayer; layer++ {
			pred, succ := preds[layer], succs[layer]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = layer
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() &&
				pred.next[layer].Load() == succ
		}
		if !valid {
			unlockPreds(preds[:], highestLocked)
			continue
		}

		n := h.newNode(topLayer)
		n.key = k
		n.value.Store(h.newBox(v))
		for layer := 0; layer <= topLayer; layer++ {
			n.next[layer].Store(succs[layer])
		}
		for layer := 0; layer <= topLayer; layer++ {
			preds[layer].next[layer].Store(n)
		}
		n.fullyLinked.Store(true)
		unlockPreds(preds[:], highestLocked)
		m.size.Add(1)
		var zero V
		return zero, false
	}
}

// Remove deletes k and returns the removed value, if any.
func (m *SkipListMap[K, V]) Remove(k K) (V, bool) {
	h := m.handle()
	defer m.release(h)
	var preds, succs [skipMaxLevel]*skipNode[K, V]
	var victim *skipNode[K, V]
	isMarked := false
	topLayer := -1
	for {
		found := m.findNode(k, preds[:], succs[:])
		if !isMarked {
			if found == -1 {
				var zero V
				return zero, false
			}
			victim = succs[found]
			if !victim.fullyLinked.Load() || victim.marked.Load() || victim.topLayer != found {
				var zero V
				return zero, false
			}
			topLayer = victim.topLayer
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				var zero V
				return zero, false
			}
			victim.marked.Store(true)
			isMarked = true
		}

		highestLocked := -1
		valid := true
		var prevPred *skipNode[K, V]
		for layer := 0; valid && layer <= topLayer; layer++ {
			pred := preds[layer]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = layer
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[layer].Load() == victim
		}
		if !valid {
			unlockPreds(preds[:], highestLocked)
			continue
		}

		for layer := topLayer; layer >= 0; layer-- {
			preds[layer].next[layer].Store(victim.next[layer].Load())
		}
		vb := victim.value.Load()
		v := vb.v
		victim.mu.Unlock()
		unlockPreds(preds[:], highestLocked)
		m.size.Add(-1)
		// The victim is unlinked (new traversals cannot reach it) but
		// readers that loaded a pointer before the unlink may still be
		// standing on it; retire node and final box through the epoch bins.
		h.retireBox(vb)
		h.retireNode(victim)
		return v, true
	}
}

// Len returns the number of entries.
func (m *SkipListMap[K, V]) Len() int {
	return int(m.size.Load())
}

// Min returns the smallest key and its value.
func (m *SkipListMap[K, V]) Min() (K, V, bool) {
	h := m.handle()
	defer m.release(h)
	for {
		n := m.head.next[0].Load()
		if n.sentinel == 1 {
			var zk K
			var zv V
			return zk, zv, false
		}
		if n.fullyLinked.Load() && !n.marked.Load() {
			return n.key, n.value.Load().v, true
		}
		procSpin()
	}
}

// Range calls f over entries in ascending key order until f returns false.
// Concurrent updates may or may not be observed.
func (m *SkipListMap[K, V]) Range(f func(K, V) bool) {
	h := m.handle()
	defer m.release(h)
	for n := m.head.next[0].Load(); n.sentinel != 1; n = n.next[0].Load() {
		if n.marked.Load() || !n.fullyLinked.Load() {
			continue
		}
		if !f(n.key, n.value.Load().v) {
			return
		}
	}
}

// RangeBetween calls f over entries with lo <= key <= hi in ascending order
// until f returns false. It descends the index layers to reach lo without
// scanning the whole list.
func (m *SkipListMap[K, V]) RangeBetween(lo, hi K, f func(K, V) bool) {
	h := m.handle()
	defer m.release(h)
	pred := m.head
	for layer := skipMaxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for m.compareNode(lo, curr) > 0 {
			pred = curr
			curr = pred.next[layer].Load()
		}
	}
	for n := pred.next[0].Load(); n.sentinel != 1; n = n.next[0].Load() {
		if m.compareNode(hi, n) < 0 {
			return
		}
		if n.marked.Load() || !n.fullyLinked.Load() || m.compareNode(lo, n) > 0 {
			continue
		}
		if !f(n.key, n.value.Load().v) {
			return
		}
	}
}

func unlockPreds[K any, V any](preds []*skipNode[K, V], highestLocked int) {
	var prev *skipNode[K, V]
	for layer := 0; layer <= highestLocked; layer++ {
		if preds[layer] != prev {
			preds[layer].mu.Unlock()
			prev = preds[layer]
		}
	}
}

// randomLevel draws a geometric level with p = 1/2.
func (m *SkipListMap[K, V]) randomLevel() int {
	for {
		old := m.seed.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if m.seed.CompareAndSwap(old, x) {
			level := 0
			for x&1 == 1 && level < skipMaxLevel-1 {
				level++
				x >>= 1
			}
			return level
		}
	}
}

func procSpin() {
	// Gosched lets the linking/unlinking goroutine run.
	spinYield()
}
