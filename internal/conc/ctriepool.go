package conc

import (
	"math"
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
// A displaced node that snapshots may still reach first waits for them
// (DESIGN.md §13). Every node carries a birth stamp, the seq of the
// generation it was built under, and every live snapshot holds a pin slot
// with its point: the seq of its source's fresh generation, drawn before
// its RDCSS. A snapshot reaches a node only if the node was born before its
// point and displaced after it, so a displaced node waits in one of the
// handle's held cohorts only while a live pin's point lies between its
// birth and its filing, and is re-checked on every drain; any other goes
// to the reader bins at once.
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

	// ctHeldCap caps each node kind in a held cohort. A held node is one a
	// pinned snapshot may reach, so for a snapshot that is discarded in the
	// end it is live anyway; the cap binds for snapshots nobody discards,
	// whose reach grows without end once they are many. Nodes a stalled
	// snapshot holds for long end up in the oldest cohort, so its cap
	// leaves the newer ones room for what is held only briefly. What the
	// cap turns away goes to the collector and is counted (ctPool.dropped).
	ctHeldCap = 1024
	// ctHeldCohorts bounds a handle's held cohorts; a filing beyond it
	// joins the newest one.
	ctHeldCohorts = 4
	// ctPinSlots bounds the pin slots. With every one held — only
	// snapshots nobody discards get there — a new snapshot shares the
	// last slot, widened to cover every point below its own.
	ctPinSlots = 64
)

// ctBin is one cohort of retired nodes.
type ctBin[K comparable, V any] struct {
	mains    []*ctMain[K, V]
	cnodes   []*ctCNode[K, V]
	branches []*ctBranch[K, V]
	ins      []*ctINode[K, V]
	// Root objects and snapshot headers only ever wait out readers: they
	// are filed into reader bins alone.
	roots   []*rootRef[K, V]
	headers []*Ctrie[K, V]
}

func (b *ctBin[K, V]) addMain(m *ctMain[K, V])     { b.mains = append(b.mains, m) }
func (b *ctBin[K, V]) addCNode(cn *ctCNode[K, V])  { b.cnodes = append(b.cnodes, cn) }
func (b *ctBin[K, V]) addBranch(x *ctBranch[K, V]) { b.branches = append(b.branches, x) }
func (b *ctBin[K, V]) addINode(in *ctINode[K, V])  { b.ins = append(b.ins, in) }
func (b *ctBin[K, V]) addRoot(r *rootRef[K, V])    { b.roots = append(b.roots, r) }
func (b *ctBin[K, V]) addHeader(ct *Ctrie[K, V])   { b.headers = append(b.headers, ct) }

func (b *ctBin[K, V]) empty() bool {
	return len(b.mains)+len(b.cnodes)+len(b.branches)+len(b.ins) == 0
}

// addAll adds every node of src to b; src is left as it was.
func (b *ctBin[K, V]) addAll(src *ctBin[K, V]) {
	b.mains = append(b.mains, src.mains...)
	b.cnodes = append(b.cnodes, src.cnodes...)
	b.branches = append(b.branches, src.branches...)
	b.ins = append(b.ins, src.ins...)
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

// ctHeld is a held cohort: displaced nodes that a snapshot pinned when
// they were filed may still reach. r is the gens count read at filing, and
// every node kept was born before top, the reach it was last sorted under
// (math.MaxUint64 while unsorted).
type ctHeld[K comparable, V any] struct {
	r, top uint64
	ctBin[K, V]
}

// ctPin is a snapshot's pin slot. While held (hi != 0) it covers the
// points lo..hi: a node born before hi and filed at or after lo may still
// be reachable. One snapshot covers its own point (lo == hi); a snapshot
// of a snapshot also holds its source's slot (parent), since it reaches
// all its source reaches; a snapshot that shares a slot widens it to lo 0.
type ctPin struct {
	lo, hi atomic.Uint64
	refs   atomic.Int32 // holders; -1 while a claim sets it up or the last holder clears it
	parent *ctPin       // held while this slot is
	_      [32]byte     // pad to a cache line: each is written by its own snapshot
}

// ctSpan is a held pin slot's lo..hi as one scan read it.
type ctSpan struct{ lo, hi uint64 }

// share takes one more hold on a held slot, or reports false if s is idle
// or being cleared.
func (s *ctPin) share() bool {
	for {
		n := s.refs.Load()
		if n < 1 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// raise lifts s's hi to at least point.
func (s *ctPin) raise(point uint64) {
	for {
		hi := s.hi.Load()
		if hi >= point || s.hi.CompareAndSwap(hi, point) {
			return
		}
	}
}

// reach is the highest hi among the spans whose lo is at or below r: a node
// filed at r is blocked exactly when it was born before that.
func reach(spans []ctSpan, r uint64) uint64 {
	top := uint64(0)
	for _, s := range spans {
		if s.lo <= r && s.hi > top {
			top = s.hi
		}
	}
	return top
}

// ctPool is the per-structure reclamation domain + handle cache. A Ctrie
// and every snapshot derived from it share one ctPool, because retired
// nodes may still be traversed by readers of either.
type ctPool[K comparable, V any] struct {
	ebr      *ebr
	handles  sync.Pool
	foreigns sync.Pool // *ctForeign, one per live mutable snapshot

	gens    atomic.Uint64       // generations numbered so far
	pins    SlotRegistry[ctPin] // one slot per live snapshot, claimed and left idle, never released
	dropped atomic.Uint64       // held nodes turned away at ctHeldCap

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

// pinSnapshot claims a pin slot for a new snapshot at point and returns
// it; src is the source's slot when the source is a snapshot too, and is
// held as long as the new slot is. The caller stores the slot before its
// RDCSS, so a filer that displaced a node after the RDCSS sees it.
func (p *ctPool[K, V]) pinSnapshot(point uint64, src *ctPin) *ctPin {
	for {
		slots := p.pins.Slots()
		for _, s := range slots {
			// Claimed at -1, so nobody shares it half set up.
			if s.refs.Load() == 0 && s.refs.CompareAndSwap(0, -1) {
				if src != nil {
					src.share() // held by its live snapshot, so it succeeds
				}
				s.parent = src
				s.lo.Store(point)
				s.hi.Store(point)
				s.refs.Store(1)
				return s
			}
		}
		if len(slots) < ctPinSlots {
			p.pins.register()
			continue
		}
		// Every slot is held: share the last one, widened to every point
		// up to this one (which covers src's as well). Later snapshots
		// share it too, so one slot is widened and the others stay exact.
		if s := slots[len(slots)-1]; s.share() {
			s.lo.Store(0)
			s.raise(point)
			return s
		}
	}
}

// unpinSnapshot gives up a snapshot's hold on its slot; the last holder
// clears it and gives up the hold on its parent.
func (p *ctPool[K, V]) unpinSnapshot(s *ctPin) {
	for s != nil {
		n := s.refs.Load()
		if n > 1 {
			if s.refs.CompareAndSwap(n, n-1) {
				return
			}
			continue
		}
		if !s.refs.CompareAndSwap(1, -1) {
			continue
		}
		s.hi.Store(0)
		s.lo.Store(0)
		parent := s.parent
		s.parent = nil
		s.refs.Store(0)
		s = parent
	}
}

// spans appends the span of every held pin slot to dst. A slot whose hi
// moved while it was read counts from 0.
func (p *ctPool[K, V]) spans(dst []ctSpan) []ctSpan {
	for _, s := range p.pins.Slots() {
		hi := s.hi.Load()
		if hi == 0 {
			continue
		}
		lo := s.lo.Load()
		if s.hi.Load() != hi {
			lo = 0
		}
		dst = append(dst, ctSpan{lo, hi})
	}
	return dst
}

// ctHandle is one participant's view of the pool.
type ctHandle[K comparable, V any] struct {
	participant
	pool *ctPool[K, V]

	// bins wait out readers (tagged with the reader epoch); held waits
	// out the snapshots that may reach its nodes first; aside collects
	// what the current operation displaced for held, filed when it ends.
	bins  epochBins[ctBin[K, V]]
	held  []ctHeld[K, V]
	aside ctBin[K, V]
	scan  []ctSpan // scratch for pin scans

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

// pin also drains, on the pins the participant advances the reader epoch.
func (h *ctHandle[K, V]) pin() {
	if h.participant.pin() {
		h.drainExpired()
	}
}

// drainExpired moves every aged-out reader bin to the freelists, then
// releases what the held cohorts no longer need to hold.
func (h *ctHandle[K, V]) drainExpired() {
	h.bins.expire(h.epoch(), h.drainBin)
	if len(h.held) > 0 {
		h.scan = h.pool.spans(h.scan[:0])
		h.recheck()
	}
}

// --- allocation ---------------------------------------------------------

// newMain returns an empty main born under gen.
func (h *ctHandle[K, V]) newMain(gen ctGen) *ctMain[K, V] {
	if m := h.mains.pop(); m != nil {
		m.born = gen.seq
		return m
	}
	return &ctMain[K, V]{born: gen.seq}
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

// binFor is where a node of generation gen goes once an operation of
// generation owner on ct has displaced it: the reader bin when gen is owner
// (created since the trie's latest snapshot, so no snapshot can reach it).
// A node of another lineage displaced by a mutable snapshot is still live
// in the snapshot's source: it goes to the snapshot's record (Adopt files
// the record, Discard drops it). Any other node — an older generation of
// owner's lineage, or one an adopted snapshot brought in — is reachable
// from no trie's current state any more, only from snapshots pinned before
// now: it is set aside and filed when the operation ends (file).
func (ct *Ctrie[K, V]) binFor(h *ctHandle[K, V], owner, gen ctGen) *ctBin[K, V] {
	switch {
	case gen == owner:
		return h.bin()
	case gen.line != owner.line && ct.foreign != nil:
		if h.foreign == nil {
			ct.foreign.mu.Lock()
			h.foreign = ct.foreign
		}
		return &h.foreign.ctBin
	}
	return &h.aside
}

// file sends the displaced nodes of src to the reader bin when no pinned
// snapshot can reach any of them, and else holds them, unsorted, in a
// cohort: the next recheck releases them whole if the snapshots that block
// them are gone by then, as they mostly are, or sorts them by birth. src is
// left as it was. r is read after the displacements and before the scan,
// so every snapshot that reaches one of them has its point at or below r,
// above the node's birth, and its slot in the scan.
func (h *ctHandle[K, V]) file(src *ctBin[K, V]) {
	r := h.pool.gens.Load()
	h.scan = h.pool.spans(h.scan[:0])
	if reach(h.scan, r) == 0 {
		h.bin().addAll(src)
		return
	}
	c := h.cohort(r)
	c.top = math.MaxUint64
	h.countDropped(c.join(src))
}

// cohort returns the held cohort to file at r, under h.scan: the newest
// one, restamped r, when it is still unsorted and no pin slot was claimed
// in between (the same snapshots count for both stamps); else a new, empty
// one behind the others. With ctHeldCohorts already held, the cohorts are re-checked
// first, and if that frees none, the two oldest merge, under the later
// stamp of the two (a later stamp only counts more snapshots): they hold
// what has been held longest, and the cap of the merged one turns away
// that, not what was filed last.
func (h *ctHandle[K, V]) cohort(r uint64) *ctHeld[K, V] {
	n := len(h.held)
	if n > 0 && h.held[n-1].top == math.MaxUint64 {
		c := &h.held[n-1]
		same := true
		for _, sp := range h.scan {
			same = same && (sp.lo <= c.r || sp.lo > r)
		}
		if same {
			c.r = r
			return c
		}
	}
	if n == ctHeldCohorts {
		h.recheck()
		n = len(h.held)
	}
	if n == ctHeldCohorts {
		a, b := &h.held[0], h.held[1]
		h.countDropped(a.join(&b.ctBin))
		a.r, a.top = b.r, max(a.top, b.top)
		b.drop()
		copy(h.held[1:], h.held[2:])
		h.held[n-1] = b
		n--
	}
	if n < cap(h.held) {
		h.held = h.held[:n+1] // an emptied cohort, capacity kept
	} else {
		h.held = append(h.held, ctHeld[K, V]{})
	}
	c := &h.held[n]
	c.r, c.top = r, 0
	return c
}

// recheck releases what the held cohorts no longer need to hold, under
// h.scan. A cohort no pinned snapshot reaches any more goes to the reader
// bin whole; one whose reach has fallen, not to 0, is sorted by birth; any
// other is left as it is. Emptied cohorts move behind the others, keeping
// their capacity.
func (h *ctHandle[K, V]) recheck() {
	rel := h.bin()
	n := 0
	for i := range h.held {
		c := &h.held[i]
		switch top := reach(h.scan, c.r); {
		case top == 0:
			rel.addAll(&c.ctBin)
			c.drop()
		case top < c.top:
			sift(&c.mains, top, &rel.mains)
			sift(&c.cnodes, top, &rel.cnodes)
			sift(&c.branches, top, &rel.branches)
			sift(&c.ins, top, &rel.ins)
			c.top = top
		}
		if !c.empty() {
			h.held[n], h.held[i] = h.held[i], h.held[n]
			n++
		}
	}
	h.held = h.held[:n]
}

// countDropped counts n held nodes turned away at ctHeldCap.
func (h *ctHandle[K, V]) countDropped(n int) {
	if n > 0 {
		h.pool.dropped.Add(uint64(n))
	}
}

// join adds src's nodes to c while each list holds fewer than ctHeldCap,
// and returns how many it turned away.
func (c *ctHeld[K, V]) join(src *ctBin[K, V]) int {
	return capped(&c.mains, src.mains) + capped(&c.cnodes, src.cnodes) +
		capped(&c.branches, src.branches) + capped(&c.ins, src.ins)
}

// capped appends xs to a held list while it has fewer than ctHeldCap nodes
// and returns how many it turned away.
func capped[T any](list *[]T, xs []T) (dropped int) {
	n := min(len(xs), max(ctHeldCap-len(*list), 0))
	*list = append(*list, xs[:n]...)
	return len(xs) - n
}

// ctNode is what every node kind tells its birth stamp through.
type ctNode interface{ birth() uint64 }

// sift moves every node of a held list born at or after top — no pinned
// snapshot reaches it — to *rel and keeps the others.
func sift[T ctNode](list *[]T, top uint64, rel *[]T) {
	xs := *list
	kept := xs[:0]
	for _, x := range xs {
		if x.birth() >= top {
			*rel = append(*rel, x)
		} else {
			kept = append(kept, x)
		}
	}
	clear(xs[len(kept):])
	*list = kept
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

// --- immediate recycling (never-published or fully-aged nodes) ----------

func (h *ctHandle[K, V]) recycleMainNow(m *ctMain[K, V]) {
	if g := h.pool.poison; g != (ctGen{}) {
		m.cn, m.tn, m.ln, m.failed = &ctCNode[K, V]{gen: g}, nil, nil, nil
		return
	}
	if h.mains.push(m, ctMainCap) {
		m.cn, m.tn, m.ln, m.failed, m.born = nil, nil, nil, nil, 0
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
	ct.hash, ct.pool, ct.src, ct.foreign, ct.pin = nil, nil, nil, nil, nil
	ct.readOnly, ct.unversioned = false, false
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
// first older one. A TNode main of the generation goes too (the box it
// entombs is left alone); LNode mains are left to the garbage collector.
func (h *ctHandle[K, V]) discard(in *ctINode[K, V]) {
	gen := in.gen
	m := in.main.Load()
	h.recycleINodeNow(in)
	if m.tn != nil && m.born == gen.seq {
		h.recycleMainNow(m)
		return
	}
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
