package conc

import "sync"

// skippool.go wires the skiplist into the epoch facility, following the
// ctriepool.go pattern: every public SkipListMap operation borrows a slHandle
// from the map's slPool, pins its epoch slot for the duration of the
// traversal, and serves node/box allocation from typed freelists. Removed
// nodes and displaced value boxes are retired into rotating epoch bins and
// reused once the global epoch has advanced ebrGrace times past their tag —
// the skiplist's lock-free readers (Get, Range, findNode) may still be
// walking a node after its unlink, which is exactly the window the grace
// period covers.
//
// Node freelists are level-classed (a node's next array has topLayer+1
// slots), like the Ctrie pool's CNode length classes. Value boxes get their
// own freelist: Put-over-existing displaces one box per update, which is the
// skiplist's steady-state allocation residue.

const (
	// Per-level node freelist cap. Levels are geometric (p = 1/2), so the
	// low classes see nearly all the traffic.
	slNodeCap = 512
	// Value-box freelist cap.
	slBoxCap = 1024
)

// slBin is one epoch residue class of retired skiplist memory.
type slBin[K any, V any] struct {
	epoch uint64
	nodes []*skipNode[K, V]
	boxes []*box[V]
}

// slPool is the per-map reclamation domain + handle cache.
type slPool[K any, V any] struct {
	ebr     *ebr
	handles sync.Pool
}

func newSlPool[K any, V any]() *slPool[K, V] {
	p := &slPool[K, V]{ebr: newEBR()}
	p.handles.New = func() any {
		h := &slHandle[K, V]{pool: p}
		h.slot = registerFor(p.ebr, h)
		return h
	}
	return p
}

func (p *slPool[K, V]) get() *slHandle[K, V] {
	return p.handles.Get().(*slHandle[K, V])
}

func (p *slPool[K, V]) put(h *slHandle[K, V]) {
	p.handles.Put(h)
}

// slHandle is one participant's view of the pool.
type slHandle[K any, V any] struct {
	pool *slPool[K, V]
	slot *ebrSlot
	ops  uint64

	bins [3]slBin[K, V]

	nodes [skipMaxLevel][]*skipNode[K, V]
	boxes []*box[V]
}

func (h *slHandle[K, V]) pin() {
	h.slot.pin(&h.pool.ebr.global)
	h.ops++
	if h.ops%epAdvanceEvery == 0 {
		h.pool.ebr.tryAdvance()
		h.drainExpired()
	}
}

func (h *slHandle[K, V]) unpin() {
	h.slot.unpin()
}

// --- allocation ---------------------------------------------------------

// newNode returns a node with topLayer+1 next slots, recycled if possible.
// Recycled nodes carry stale fields (key, flags, next pointers); newSkipNode
// callers overwrite key/value/next before publication, and the flags are
// reset here so a recycled node is never momentarily visible as fullyLinked.
func (h *slHandle[K, V]) newNode(topLayer int) *skipNode[K, V] {
	if ln := len(h.nodes[topLayer]); ln > 0 {
		n := h.nodes[topLayer][ln-1]
		h.nodes[topLayer][ln-1] = nil
		h.nodes[topLayer] = h.nodes[topLayer][:ln-1]
		return n
	}
	return newSkipNode[K, V](topLayer)
}

func (h *slHandle[K, V]) newBox(v V) *box[V] {
	if n := len(h.boxes); n > 0 {
		b := h.boxes[n-1]
		h.boxes[n-1] = nil
		h.boxes = h.boxes[:n-1]
		b.v = v
		return b
	}
	return &box[V]{v: v}
}

// --- retirement ---------------------------------------------------------

// bin returns the retire bin for the current epoch, draining the residue
// class first if it still holds a fully-aged previous cohort.
func (h *slHandle[K, V]) bin() *slBin[K, V] {
	e := h.pool.ebr.global.Load()
	b := &h.bins[e%3]
	if b.epoch != e {
		h.drainBin(b)
		b.epoch = e
	}
	return b
}

func (h *slHandle[K, V]) retireNode(n *skipNode[K, V]) {
	b := h.bin()
	b.nodes = append(b.nodes, n)
}

func (h *slHandle[K, V]) retireBox(bx *box[V]) {
	b := h.bin()
	b.boxes = append(b.boxes, bx)
}

// drainExpired moves every fully-aged bin to the freelists.
func (h *slHandle[K, V]) drainExpired() {
	g := h.pool.ebr.global.Load()
	for i := range h.bins {
		b := &h.bins[i]
		if b.epoch+ebrGrace <= g {
			h.drainBin(b)
		}
	}
}

func (h *slHandle[K, V]) drainBin(b *slBin[K, V]) {
	for i, n := range b.nodes {
		h.recycleNodeNow(n)
		b.nodes[i] = nil
	}
	for i, bx := range b.boxes {
		h.recycleBoxNow(bx)
		b.boxes[i] = nil
	}
	b.nodes = b.nodes[:0]
	b.boxes = b.boxes[:0]
}

// --- immediate recycling (fully-aged nodes) -----------------------------

func (h *slHandle[K, V]) recycleNodeNow(n *skipNode[K, V]) {
	tl := n.topLayer
	if tl < 0 || tl >= skipMaxLevel || len(h.nodes[tl]) >= slNodeCap {
		return
	}
	var zk K
	n.key = zk
	n.value.Store(nil)
	for i := range n.next {
		n.next[i].Store(nil)
	}
	n.marked.Store(false)
	n.fullyLinked.Store(false)
	h.nodes[tl] = append(h.nodes[tl], n)
}

func (h *slHandle[K, V]) recycleBoxNow(bx *box[V]) {
	if len(h.boxes) >= slBoxCap {
		return
	}
	var zv V
	bx.v = zv
	h.boxes = append(h.boxes, bx)
}
