package conc

import (
	"sync"
)

// ctriepool.go gives the Ctrie an allocator cache on top of the epoch
// facility in epoch.go. Every public Ctrie operation borrows a ctHandle
// from the structure's ctPool: the handle carries the participant's epoch
// slot, three rotating retire bins (one per epoch residue class), and
// typed freelists that node allocation is served from. Displaced nodes are
// retired into the bin tagged with the current epoch; once the global
// epoch has advanced ebrGrace times past a bin's tag, its contents move to
// the freelists and are handed out again. Nodes that were never published
// (a losing GCAS copy) skip the grace period entirely via recycle*Now.
//
// Handles are recycled through a sync.Pool, so the number of registered
// epoch slots is bounded by the peak number of concurrent operations, and
// all freelist traffic is handle-local — no locks, no cross-goroutine
// sharing except through the sync.Pool and the epoch protocol itself.

const (
	// ctAdvanceEvery is the pin cadence at which a handle volunteers to
	// advance the epoch and drain its expired bins.
	ctAdvanceEvery = 32

	// Freelist caps; beyond these, recycled nodes are dropped to the GC.
	ctMainCap   = 1024
	ctBranchCap = 4096
	ctCNodeCap  = 64 // per array length class
	ctINodeCap  = 256
)

// ctBin is one epoch residue class of retired nodes.
type ctBin[K comparable, V any] struct {
	epoch    uint64
	mains    []*ctMain[K, V]
	cnodes   []*ctCNode[K, V]
	branches []*ctBranch[K, V]
	ins      []*ctINode[K, V]
}

// ctPool is the per-structure reclamation domain + handle cache. A Ctrie
// and every snapshot derived from it share one ctPool, because retired
// nodes may still be traversed by readers of either.
type ctPool[K comparable, V any] struct {
	ebr     *ebr
	handles sync.Pool
}

func newCtPool[K comparable, V any]() *ctPool[K, V] {
	p := &ctPool[K, V]{ebr: newEBR()}
	p.handles.New = func() any {
		return &ctHandle[K, V]{pool: p, slot: p.ebr.register()}
	}
	return p
}

func (p *ctPool[K, V]) get() *ctHandle[K, V] {
	return p.handles.Get().(*ctHandle[K, V])
}

func (p *ctPool[K, V]) put(h *ctHandle[K, V]) {
	p.handles.Put(h)
}

// ctHandle is one participant's view of the pool.
type ctHandle[K comparable, V any] struct {
	pool *ctPool[K, V]
	slot *ebrSlot
	ops  uint64

	bins [3]ctBin[K, V]

	// Freelists (allocator cache). cnodes is indexed by array length.
	mains    []*ctMain[K, V]
	branches []*ctBranch[K, V]
	cnodes   [33][]*ctCNode[K, V]
	ins      []*ctINode[K, V]

	// scratch collects the INode-edge boxes a toCompressed pass displaced,
	// so clean can retire them only if its GCAS wins (see ctrie.go).
	scratch []*ctBranch[K, V]
}

func (h *ctHandle[K, V]) pin() {
	h.slot.pin(&h.pool.ebr.global)
	h.ops++
	if h.ops%ctAdvanceEvery == 0 {
		h.pool.ebr.tryAdvance()
		h.drainExpired()
	}
}

func (h *ctHandle[K, V]) unpin() {
	h.slot.unpin()
}

// --- allocation ---------------------------------------------------------

func (h *ctHandle[K, V]) newMain() *ctMain[K, V] {
	if n := len(h.mains); n > 0 {
		m := h.mains[n-1]
		h.mains = h.mains[:n-1]
		return m
	}
	return &ctMain[K, V]{}
}

// newCNode returns a CNode whose array has length n, recycled if possible.
// Recycled slots may hold stale pointers (bounded by the freelist caps);
// every CNode constructor overwrites every slot before publication.
func (h *ctHandle[K, V]) newCNode(n int, bmp uint32, gen *ctGen) *ctCNode[K, V] {
	if ln := len(h.cnodes[n]); ln > 0 {
		cn := h.cnodes[n][ln-1]
		h.cnodes[n] = h.cnodes[n][:ln-1]
		cn.bmp, cn.gen = bmp, gen
		return cn
	}
	return &ctCNode[K, V]{bmp: bmp, gen: gen, array: make([]*ctBranch[K, V], n)}
}

func (h *ctHandle[K, V]) newINode(gen *ctGen, m *ctMain[K, V]) *ctINode[K, V] {
	if n := len(h.ins); n > 0 {
		in := h.ins[n-1]
		h.ins = h.ins[:n-1]
		in.gen = gen
		in.main.Store(m)
		return in
	}
	return newCtINode(gen, m)
}

func (h *ctHandle[K, V]) newBranch() *ctBranch[K, V] {
	if n := len(h.branches); n > 0 {
		b := h.branches[n-1]
		h.branches = h.branches[:n-1]
		return b
	}
	return &ctBranch[K, V]{}
}

func (h *ctHandle[K, V]) newSNode(hc uint32, k K, v V, gen *ctGen) *ctBranch[K, V] {
	b := h.newBranch()
	b.hc, b.k, b.v, b.gen = hc, k, v, gen
	return b
}

func (h *ctHandle[K, V]) newINodeBranch(in *ctINode[K, V], gen *ctGen) *ctBranch[K, V] {
	b := h.newBranch()
	b.in, b.gen = in, gen
	return b
}

// --- retirement ---------------------------------------------------------

// bin returns the retire bin for the current epoch, draining the residue
// class first if it still holds a fully-aged previous cohort.
func (h *ctHandle[K, V]) bin() *ctBin[K, V] {
	e := h.pool.ebr.global.Load()
	b := &h.bins[e%3]
	if b.epoch != e {
		// Same residue class, older epoch: tags differ by a multiple of 3,
		// so the old cohort is at least ebrGrace epochs stale — reusable.
		h.drainBin(b)
		b.epoch = e
	}
	return b
}

func (h *ctHandle[K, V]) retireMain(m *ctMain[K, V]) {
	b := h.bin()
	b.mains = append(b.mains, m)
}

func (h *ctHandle[K, V]) retireCNode(cn *ctCNode[K, V]) {
	b := h.bin()
	b.cnodes = append(b.cnodes, cn)
}

func (h *ctHandle[K, V]) retireBranch(br *ctBranch[K, V]) {
	b := h.bin()
	b.branches = append(b.branches, br)
}

func (h *ctHandle[K, V]) retireINode(in *ctINode[K, V]) {
	b := h.bin()
	b.ins = append(b.ins, in)
}

// drainExpired moves every fully-aged bin to the freelists.
func (h *ctHandle[K, V]) drainExpired() {
	g := h.pool.ebr.global.Load()
	for i := range h.bins {
		b := &h.bins[i]
		if b.epoch+ebrGrace <= g {
			h.drainBin(b)
		}
	}
}

func (h *ctHandle[K, V]) drainBin(b *ctBin[K, V]) {
	for _, m := range b.mains {
		h.recycleMainNow(m)
	}
	for _, cn := range b.cnodes {
		h.recycleCNodeNow(cn)
	}
	for _, br := range b.branches {
		h.recycleBranchNow(br)
	}
	for _, in := range b.ins {
		h.recycleINodeNow(in)
	}
	b.mains = b.mains[:0]
	b.cnodes = b.cnodes[:0]
	b.branches = b.branches[:0]
	b.ins = b.ins[:0]
}

// --- immediate recycling (never-published or fully-aged nodes) ----------

func (h *ctHandle[K, V]) recycleMainNow(m *ctMain[K, V]) {
	if len(h.mains) >= ctMainCap {
		return
	}
	m.cn, m.tn, m.ln, m.failed = nil, nil, nil, nil
	m.prev.Store(nil)
	h.mains = append(h.mains, m)
}

func (h *ctHandle[K, V]) recycleCNodeNow(cn *ctCNode[K, V]) {
	n := len(cn.array)
	if len(h.cnodes[n]) >= ctCNodeCap {
		return
	}
	cn.gen = nil
	h.cnodes[n] = append(h.cnodes[n], cn)
}

func (h *ctHandle[K, V]) recycleINodeNow(in *ctINode[K, V]) {
	if len(h.ins) >= ctINodeCap {
		return
	}
	in.gen = nil
	in.main.Store(nil)
	h.ins = append(h.ins, in)
}

func (h *ctHandle[K, V]) recycleBranchNow(b *ctBranch[K, V]) {
	if len(h.branches) >= ctBranchCap {
		return
	}
	var zk K
	var zv V
	b.in, b.gen, b.hc, b.k, b.v = nil, nil, 0, zk, zv
	h.branches = append(h.branches, b)
}

// discard recycles, with no grace period, every node of in's generation in
// the subtree below in (Ctrie.Discard states why that is safe). An INode
// edge box always carries its INode's generation, and nodes of a generation
// sit only below nodes of the same generation, so the walk stops at the
// first older one. TNode/LNode mains are left to the garbage collector.
func (h *ctHandle[K, V]) discard(in *ctINode[K, V]) {
	gen := in.gen
	m := in.main.Load()
	h.recycleINodeNow(in)
	if m.cn == nil || m.cn.gen != gen {
		return
	}
	for _, b := range m.cn.array {
		if b.gen != gen {
			continue
		}
		if b.in != nil {
			h.discard(b.in)
		}
		h.recycleBranchNow(b)
	}
	h.recycleCNodeNow(m.cn)
	h.recycleMainNow(m)
}
