package conc

import (
	"sync"
	"sync/atomic"
)

// ctriepool.go builds the Ctrie's allocator cache from the parts in
// epochpool.go. Every public Ctrie operation borrows a ctHandle from the
// structure's ctPool: a participant, reader bins, and freelists that node
// allocation is served from — root objects and snapshot headers included.
// Nodes that were never published (a losing GCAS copy) skip the grace
// period entirely via recycle*Now.
//
// A displaced node that snapshots may still share first waits out their
// lifetimes (DESIGN.md §13): the pool keeps a second epoch, the lifetime
// epoch, that every snapshot pins from before it is taken until Discard,
// and the handle keeps a second set of epochBins, the lifetime bins, on
// it. A lifetime bin tagged t moves into the reader bins once the lifetime
// epoch reaches t+ebrGrace — every snapshot that could see its nodes is
// gone — and from there ages out like any other cohort.
//
// Handles are recycled through a sync.Pool, so the number of registered
// epoch slots is bounded by the peak number of concurrent operations, and
// all freelist traffic is handle-local — no locks, no cross-goroutine
// sharing except through the sync.Pool and the epoch protocol itself.

const (
	// Freelist caps; beyond these, recycled nodes are dropped to the GC.
	ctMainCap   = 1024
	ctBranchCap = 4096
	ctCNodeCap  = 64 // per array length class
	ctINodeCap  = 256
	// An operation retires at most two root objects and one snapshot
	// header, and a handle that advances the epoch alone drains one bin
	// every advanceEvery pins: the caps hold one such bin's worth.
	ctRootCap   = 2 * advanceEvery
	ctHeaderCap = advanceEvery

	// ctLifeCap caps each list of a lifetime bin. A lifetime cohort on the
	// Figure-4 path holds 8–10 nodes of a kind on average and outgrows the
	// cap only while the lifetime epoch stalls (10–12 % of lifetime
	// retirements overflow at this cap, 5–8 % at 1024). A snapshot nobody
	// discards stalls it for good, and full lifetime bins are then what it
	// costs: nodes every collection marks again.
	ctLifeCap = 128
)

// ctBin is one cohort of retired nodes.
type ctBin[K comparable, V any] struct {
	life     bool // a lifetime bin: lists capped at ctLifeCap
	mains    []*ctMain[K, V]
	cnodes   []*ctCNode[K, V]
	branches []*ctBranch[K, V]
	ins      []*ctINode[K, V]
	// Root objects and snapshot headers only ever wait out readers: they
	// are filed into reader bins alone.
	roots   []*rootRef[K, V]
	headers []*Ctrie[K, V]
}

// binAdd appends x to a list of a bin, unless the bin is a full lifetime
// bin: then x is left to the garbage collector.
func binAdd[T any](life bool, list *[]T, x T) {
	if !life || len(*list) < ctLifeCap {
		*list = append(*list, x)
	}
}

func (b *ctBin[K, V]) addMain(m *ctMain[K, V])     { binAdd(b.life, &b.mains, m) }
func (b *ctBin[K, V]) addCNode(cn *ctCNode[K, V])  { binAdd(b.life, &b.cnodes, cn) }
func (b *ctBin[K, V]) addBranch(x *ctBranch[K, V]) { binAdd(b.life, &b.branches, x) }
func (b *ctBin[K, V]) addINode(in *ctINode[K, V])  { binAdd(b.life, &b.ins, in) }
func (b *ctBin[K, V]) addRoot(r *rootRef[K, V])    { binAdd(b.life, &b.roots, r) }
func (b *ctBin[K, V]) addHeader(ct *Ctrie[K, V])   { binAdd(b.life, &b.headers, ct) }

func (b *ctBin[K, V]) empty() bool {
	return len(b.mains)+len(b.cnodes)+len(b.branches)+len(b.ins) == 0
}

// binAddAll is binAdd for every element of xs.
func binAddAll[T any](life bool, list *[]T, xs []T) {
	if life {
		xs = xs[:min(len(xs), max(ctLifeCap-len(*list), 0))]
	}
	*list = append(*list, xs...)
}

// addAll adds every node of src to b; src is left as it was.
func (b *ctBin[K, V]) addAll(src *ctBin[K, V]) {
	binAddAll(b.life, &b.mains, src.mains)
	binAddAll(b.life, &b.cnodes, src.cnodes)
	binAddAll(b.life, &b.branches, src.branches)
	binAddAll(b.life, &b.ins, src.ins)
}

// reset empties b, keeping its capacity.
func (b *ctBin[K, V]) reset() {
	b.mains = b.mains[:0]
	b.cnodes = b.cnodes[:0]
	b.branches = b.branches[:0]
	b.ins = b.ins[:0]
	b.roots = b.roots[:0]
	b.headers = b.headers[:0]
}

// drop empties b of nodes that stay live elsewhere: the capacity it keeps
// must not keep them from the garbage collector.
func (b *ctBin[K, V]) drop() {
	clear(b.mains)
	clear(b.cnodes)
	clear(b.branches)
	clear(b.ins)
	b.reset()
}

// ctPool is the per-structure reclamation domain + handle cache. A Ctrie
// and every snapshot derived from it share one ctPool, because retired
// nodes may still be traversed by readers of either.
type ctPool[K comparable, V any] struct {
	ebr      *ebr
	handles  sync.Pool
	foreigns sync.Pool // *ctForeign, one per live mutable snapshot

	// life is the lifetime epoch and lifePins[e&1] the number of live
	// snapshots pinned at epoch e. Live pins are only ever at life-1 and
	// life, so two counters suffice, and advancing past e+1 waits for the
	// count at e to drain: a snapshot pin is one counter, not a registry
	// slot every advance must scan.
	life     atomic.Uint64
	lifePins [2]atomic.Int64
	gens     atomic.Uint64 // generations numbered so far

	// poison is the zero generation except in tests: then every node, root
	// object and header entering a freelist is stamped with it and dropped
	// instead of reused, so a trie that can still reach one reads garbage
	// and its checks fail loudly.
	poison ctGen
}

func newCtPool[K comparable, V any]() *ctPool[K, V] {
	p := &ctPool[K, V]{ebr: new(ebr)}
	p.handles.New = func() any {
		h := &ctHandle[K, V]{pool: p}
		h.participant = join(p.ebr, h)
		for i := range h.lbins.bin {
			h.lbins.bin[i].life = true
		}
		return h
	}
	p.foreigns.New = func() any { return new(ctForeign[K, V]) }
	return p
}

func (p *ctPool[K, V]) get() *ctHandle[K, V] {
	return p.handles.Get().(*ctHandle[K, V])
}

func (p *ctPool[K, V]) put(h *ctHandle[K, V]) {
	p.handles.Put(h)
}

// newLine returns the first generation of a new lineage: that of a new
// trie or of a mutable snapshot.
func (p *ctPool[K, V]) newLine() ctGen {
	seq := p.gens.Add(1)
	return ctGen{line: seq, seq: seq}
}

// newGen returns a fresh generation of lineage line.
func (p *ctPool[K, V]) newGen(line uint64) ctGen {
	return ctGen{line: line, seq: p.gens.Add(1)}
}

// pinLife pins the lifetime epoch for a new snapshot and returns the pin
// (epoch+1). A snapshot of a snapshot reaches everything its source reaches,
// so it takes the source's pin (src, non-zero) instead of the current
// epoch; the source is live, so that epoch cannot be released meanwhile.
// A fresh pin re-reads the epoch after counting itself: if the epoch moved
// in between, an advance may not have seen the count, so it retries.
func (p *ctPool[K, V]) pinLife(src uint64) uint64 {
	if src != 0 {
		p.lifePins[(src-1)&1].Add(1)
		return src
	}
	for {
		e := p.life.Load()
		c := &p.lifePins[e&1]
		c.Add(1)
		if p.life.Load() == e {
			return e + 1
		}
		c.Add(-1)
	}
}

// unpinLife releases a snapshot's pin.
func (p *ctPool[K, V]) unpinLife(pin uint64) {
	p.lifePins[(pin-1)&1].Add(-1)
	p.advanceLife()
}

// advanceLife moves the lifetime epoch from e to e+1 unless a snapshot is
// still pinned at e-1 (a pin at e may stay: it keeps the next advance out).
func (p *ctPool[K, V]) advanceLife() {
	e := p.life.Load()
	if p.lifePins[(e-1)&1].Load() == 0 {
		p.life.CompareAndSwap(e, e+1)
	}
}

// ctHandle is one participant's view of the pool.
type ctHandle[K comparable, V any] struct {
	participant
	pool *ctPool[K, V]

	// bins wait out readers (tagged with the reader epoch); lbins wait out
	// snapshots first (tagged with the lifetime epoch).
	bins  epochBins[ctBin[K, V]]
	lbins epochBins[ctBin[K, V]]

	// Freelists (allocator cache). cnodes is indexed by array length.
	mains    freeList[ctMain[K, V]]
	branches freeList[ctBranch[K, V]]
	cnodes   [33]freeList[ctCNode[K, V]]
	ins      freeList[ctINode[K, V]]
	roots    freeList[rootRef[K, V]]
	headers  freeList[Ctrie[K, V]]

	// scratch collects the INode-edge boxes a toCompressed pass displaced,
	// so clean can retire them only if its GCAS wins (see ctrie.go).
	scratch []*ctBranch[K, V]
	// foreign is the record of the mutable snapshot this operation has
	// displaced foreign-lineage nodes from, locked until the operation ends
	// (Ctrie.done).
	foreign *ctForeign[K, V]
}

// pin also advances the lifetime epoch, before the drain, on the pins the
// participant advances the reader epoch.
func (h *ctHandle[K, V]) pin() {
	if h.participant.pin() {
		h.pool.advanceLife()
		h.drainExpired()
	}
}

// --- allocation ---------------------------------------------------------

func (h *ctHandle[K, V]) newMain() *ctMain[K, V] {
	if m := h.mains.pop(); m != nil {
		return m
	}
	return &ctMain[K, V]{}
}

// newCNode returns a CNode whose array has length n, recycled if possible.
// Recycled slots may hold stale pointers (bounded by the freelist caps);
// every CNode constructor overwrites every slot before publication.
func (h *ctHandle[K, V]) newCNode(n int, bmp uint32, gen ctGen) *ctCNode[K, V] {
	if cn := h.cnodes[n].pop(); cn != nil {
		cn.bmp, cn.gen = bmp, gen
		return cn
	}
	return &ctCNode[K, V]{bmp: bmp, gen: gen, array: make([]*ctBranch[K, V], n)}
}

func (h *ctHandle[K, V]) newINode(gen ctGen, m *ctMain[K, V]) *ctINode[K, V] {
	if in := h.ins.pop(); in != nil {
		in.gen = gen
		in.main.Store(m)
		return in
	}
	return newCtINode(gen, m)
}

// newRoot returns an empty root object: a root or a descriptor to be.
func (h *ctHandle[K, V]) newRoot() *rootRef[K, V] {
	if r := h.roots.pop(); r != nil {
		return r
	}
	return &rootRef[K, V]{}
}

// newHeader returns an empty trie header for a snapshot.
func (h *ctHandle[K, V]) newHeader() *Ctrie[K, V] {
	if ct := h.headers.pop(); ct != nil {
		return ct
	}
	return &Ctrie[K, V]{}
}

func (h *ctHandle[K, V]) newBranch() *ctBranch[K, V] {
	if b := h.branches.pop(); b != nil {
		return b
	}
	return &ctBranch[K, V]{}
}

func (h *ctHandle[K, V]) newSNode(hc uint32, k K, v V, gen ctGen) *ctBranch[K, V] {
	b := h.newBranch()
	b.hc, b.k, b.v, b.gen = hc, k, v, gen
	return b
}

func (h *ctHandle[K, V]) newINodeBranch(in *ctINode[K, V], gen ctGen) *ctBranch[K, V] {
	b := h.newBranch()
	b.in, b.gen = in, gen
	return b
}

// --- retirement ---------------------------------------------------------

// bin returns the reader bin for the current epoch.
func (h *ctHandle[K, V]) bin() *ctBin[K, V] {
	return h.bins.at(h.epoch(), h.drainBin)
}

// lifeBin returns the lifetime bin for the current lifetime epoch; an
// aged-out cohort of its class moves on to the reader bins first. The
// caller reads the epoch here, after the displacing GCAS won.
func (h *ctHandle[K, V]) lifeBin() *ctBin[K, V] {
	return h.lbins.at(h.pool.life.Load(), h.promote)
}

// binFor is where a node of generation gen goes once an operation of
// generation owner on ct has displaced it: the reader bin when gen is owner
// (created since the trie's latest snapshot, so no snapshot can reach it),
// the lifetime bin when gen is an older generation of owner's lineage (the
// trie built it, so only snapshots taken since can still reach it). A node
// of another lineage is still live in the trie it came from: a mutable
// snapshot adds it to its record (Adopt files the record, Discard drops
// it), any other trie leaves it to the garbage collector.
func (ct *Ctrie[K, V]) binFor(h *ctHandle[K, V], owner, gen ctGen) *ctBin[K, V] {
	switch {
	case gen == owner:
		return h.bin()
	case gen.line == owner.line:
		return h.lifeBin()
	case ct.foreign != nil:
		if h.foreign == nil {
			ct.foreign.mu.Lock()
			h.foreign = ct.foreign
		}
		return &h.foreign.ctBin
	}
	return nil
}

// drainExpired moves every aged-out reader bin to the freelists, then every
// aged-out lifetime bin to the reader bins.
func (h *ctHandle[K, V]) drainExpired() {
	h.bins.expire(h.epoch(), h.drainBin)
	h.lbins.expire(h.pool.life.Load(), h.promote)
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
	for _, r := range b.roots {
		h.recycleRootNow(r)
	}
	for _, ct := range b.headers {
		h.recycleHeaderNow(ct)
	}
	b.reset()
}

// promote hands a lifetime cohort whose snapshots are all gone to the
// current reader bin: a reader of the trie that displaced it may still be
// walking it.
func (h *ctHandle[K, V]) promote(lb *ctBin[K, V]) {
	if lb.empty() {
		return
	}
	h.bin().addAll(lb)
	lb.reset()
}

// --- immediate recycling (never-published or fully-aged nodes) ----------

func (h *ctHandle[K, V]) recycleMainNow(m *ctMain[K, V]) {
	if g := h.pool.poison; g != (ctGen{}) {
		m.cn, m.tn, m.ln, m.failed = &ctCNode[K, V]{gen: g}, nil, nil, nil
		return
	}
	if h.mains.push(m, ctMainCap) {
		m.cn, m.tn, m.ln, m.failed = nil, nil, nil, nil
		m.prev.Store(nil)
	}
}

func (h *ctHandle[K, V]) recycleCNodeNow(cn *ctCNode[K, V]) {
	if g := h.pool.poison; g != (ctGen{}) {
		cn.bmp, cn.gen = 0, g
		return
	}
	if h.cnodes[len(cn.array)].push(cn, ctCNodeCap) {
		cn.gen = ctGen{}
	}
}

func (h *ctHandle[K, V]) recycleINodeNow(in *ctINode[K, V]) {
	if g := h.pool.poison; g != (ctGen{}) {
		in.gen = g
		in.main.Store(&ctMain[K, V]{cn: &ctCNode[K, V]{gen: g}})
		return
	}
	if h.ins.push(in, ctINodeCap) {
		in.gen = ctGen{}
		in.main.Store(nil)
	}
}

func (h *ctHandle[K, V]) recycleBranchNow(b *ctBranch[K, V]) {
	if g := h.pool.poison; g != (ctGen{}) {
		b.in, b.gen, b.hc = nil, g, ^b.hc
		return
	}
	if h.branches.push(b, ctBranchCap) {
		var zk K
		var zv V
		b.in, b.gen, b.hc, b.k, b.v = nil, ctGen{}, 0, zk, zv
	}
}

// recycleRootNow readies a root object for reuse. Poisoned, it is a root
// again, over a poisoned INode.
func (h *ctHandle[K, V]) recycleRootNow(r *rootRef[K, V]) {
	r.old, r.nv, r.expMain = nil, nil, nil
	if g := h.pool.poison; g != (ctGen{}) {
		r.in = newCtINode(g, &ctMain[K, V]{cn: &ctCNode[K, V]{gen: g}})
		return
	}
	if h.roots.push(r, ctRootCap) {
		r.in = nil
		r.outcome.Store(0)
	}
}

// recycleHeaderNow readies a snapshot header for reuse. Poisoned, its root
// is a poisoned root object.
func (h *ctHandle[K, V]) recycleHeaderNow(ct *Ctrie[K, V]) {
	ct.hash, ct.pool, ct.src, ct.foreign = nil, nil, nil, nil
	ct.readOnly, ct.unversioned, ct.pin = false, false, 0
	if g := h.pool.poison; g != (ctGen{}) {
		r := &rootRef[K, V]{}
		h.recycleRootNow(r)
		ct.root.Store(r)
		return
	}
	if h.headers.push(ct, ctHeaderCap) {
		ct.root.Store(nil)
	}
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
