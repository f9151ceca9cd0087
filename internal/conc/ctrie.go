package conc

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Ctrie is a concurrent hash-trie map with lock-free updates and
// constant-time snapshots, following Prokopec, Bronson, Bagwell and
// Odersky, "Concurrent Tries with Efficient Non-Blocking Snapshots"
// (PPoPP 2012) — the algorithm behind Scala's concurrent TrieMap, which
// ScalaProust uses as the base structure for its TrieMap wrappers.
//
// Updates use GCAS (generation-compare-and-swap) on interior nodes and
// RDCSS on the root, so Snapshot is O(1) in the size of the trie: it
// installs a root with a fresh generation, and subsequent writers lazily
// copy the paths they touch.
//
// On top of the PPoPP 2012 algorithm this implementation adds the memory
// discipline described in DESIGN.md §13:
//
//   - Renewal is path-lazy: a writer that meets an older-generation child
//     INode copies only that child into its generation (one CNode copy per
//     level of the path), so a new-generation CNode may keep
//     older-generation children; readers never copy, they read through
//     older-generation INodes, which no GCAS can change any more.
//   - Every generation belongs to a lineage, and a trie recycles what it
//     displaces: a node of the displacer's current generation after one
//     reader grace period, an older one once no snapshot that could still
//     see it is pinned — a snapshot sees only nodes born before its point
//     and displaced after it. Nodes of another lineage that a mutable
//     snapshot displaces stay live in its source; the snapshot keeps a
//     record of them. Both paths end in epoch-based pools (epoch.go,
//     ctriepool.go).
//   - A trie whose owner is done with it (a transaction's shadow copy) is
//     handed back with Discard: every node stamped with the trie's own
//     generation was created by, and is reachable from, that trie alone,
//     and goes straight to the freelists, and the record is dropped.
//   - Or its source takes it over with Adopt, in O(1): the source's root
//     becomes the snapshot's, and the recorded nodes, now unreachable from
//     the source too, wait out the older snapshots like any displaced node
//     of the source's own lineage.
//   - A snapshot cycle allocates nothing fixed: generations are values, and
//     the root objects (rootRef: a root or an RDCSS descriptor) and
//     snapshot headers are pooled and retired like nodes.
type Ctrie[K comparable, V any] struct {
	hash        Hasher[K]
	readOnly    bool
	unversioned bool
	pool        *ctPool[K, V]
	root        atomic.Pointer[rootRef[K, V]]
	// pin is a snapshot's pin slot (ctPool.pinSnapshot), held until
	// Discard or Adopt; nil for a trie that is no snapshot.
	pin *ctPin
	// A mutable snapshot's src is the root main it was cut from, which
	// Adopt requires its source to hold still, and foreign records the
	// nodes of other lineages it displaced (nil for any other trie).
	src     *ctMain[K, V]
	foreign *ctForeign[K, V]
}

// ctForeign is a mutable snapshot's record of displaced foreign-lineage
// nodes. An operation locks mu at its first such displacement and holds it
// until it ends (Ctrie.done), so concurrent writers to one snapshot are
// safe. Records are pooled (ctPool.foreigns).
type ctForeign[K comparable, V any] struct {
	mu sync.Mutex
	ctBin[K, V]
}

// ctGen is a trie generation, a value: seq numbers it within its pool and
// is never handed out twice (a 64-bit counter that two snapshots per
// nanosecond would take centuries to wrap), and line is the lineage it
// belongs to, numbered by that lineage's first generation. A snapshot gives
// its source a fresh generation of the source's lineage and the copy a
// lineage of its own, so a trie has built every node whose generation
// shares its lineage. Being a value, a generation costs no allocation and
// nothing for the collector to mark; it widens each node's tag from 8 bytes
// to 16, which with int keys and values only the INode (16 → 24 bytes)
// pays in its size class.
type ctGen struct{ line, seq uint64 }

// rootRef is what Ctrie.root points at: the live root INode (in != nil),
// or, with in nil, an in-flight RDCSS descriptor swinging the root from old
// to nv provided old.in's main is still expMain. Both kinds come from the
// handle's pool and go back through its reader bins (rdcssRoot, Discard),
// so every load of root happens under a pin.
type rootRef[K comparable, V any] struct {
	in      *ctINode[K, V]
	old, nv *rootRef[K, V]
	expMain *ctMain[K, V]
	// outcome is decided once (rdcssCommitted or rdcssAborted), before any
	// helper swings the root off the descriptor, and every helper swings it
	// the way decided: so the initiator, once the root has left the
	// descriptor, reads the outcome the root took. (A flag set after the
	// swing could still read false for an RDCSS another goroutine had
	// already committed.)
	outcome atomic.Int32
}

const (
	rdcssCommitted int32 = 1 + iota
	rdcssAborted
)

// ctMain is a tagged union of the main-node kinds (CNode, TNode, LNode)
// plus the GCAS failed-node marker. Exactly one of cn/tn/ln/failed is set;
// tn holds the entombed SNode box directly. born is the seq of the
// generation it was built under (0 where none is known: LNode paths), its
// birth stamp; it fills the 48-byte size class the five pointers leave.
type ctMain[K comparable, V any] struct {
	cn     *ctCNode[K, V]
	tn     *ctBranch[K, V]
	ln     *ctLNode[K, V]
	failed *ctMain[K, V]
	born   uint64

	prev atomic.Pointer[ctMain[K, V]]
}

type ctINode[K comparable, V any] struct {
	gen  ctGen
	main atomic.Pointer[ctMain[K, V]]
}

func newCtINode[K comparable, V any](gen ctGen, m *ctMain[K, V]) *ctINode[K, V] {
	in := &ctINode[K, V]{gen: gen}
	in.main.Store(m)
	return in
}

// ctBranch is a branch box: either an INode edge (in != nil) or an SNode
// carrying a key/value pair. Boxes are immutable once published and carry
// the generation they were created under, which decides how a displaced box
// is retired (Ctrie.binFor).
type ctBranch[K comparable, V any] struct {
	in  *ctINode[K, V]
	gen ctGen
	hc  uint32
	k   K
	v   V
}

type ctLNode[K comparable, V any] struct {
	entries []*ctBranch[K, V]
}

// ctCNode is immutable once the GCAS that installs it has published it;
// every update builds a replacement.
type ctCNode[K comparable, V any] struct {
	bmp   uint32
	array []*ctBranch[K, V]
	gen   ctGen
}

// birth is a node's birth stamp: the seq of the generation it was built
// under, drawn before it was built.
func (m *ctMain[K, V]) birth() uint64   { return m.born }
func (cn *ctCNode[K, V]) birth() uint64 { return cn.gen.seq }
func (x *ctBranch[K, V]) birth() uint64 { return x.gen.seq }
func (in *ctINode[K, V]) birth() uint64 { return in.gen.seq }

// NewCtrie creates an empty Ctrie with the given hasher: the default
// snapshot-capable, copy-on-write configuration.
func NewCtrie[K comparable, V any](hash Hasher[K]) *Ctrie[K, V] {
	return newCtrie[K, V](hash, false)
}

// NewCtrieUnversioned creates a Ctrie that drops the persistence
// machinery: a single generation forever, GCAS degenerates to a plain CAS,
// and Snapshot/ReadOnlySnapshot panic. Use it when rollback is provided
// elsewhere (the eager Proustian map's undo logs) and snapshots are never
// taken; Range/Len walk the live trie and are weakly consistent, like
// sync.Map.
func NewCtrieUnversioned[K comparable, V any](hash Hasher[K]) *Ctrie[K, V] {
	return newCtrie[K, V](hash, true)
}

func newCtrie[K comparable, V any](hash Hasher[K], unversioned bool) *Ctrie[K, V] {
	pool := newCtPool[K, V]()
	gen := pool.newLine()
	root := newCtINode(gen, &ctMain[K, V]{cn: &ctCNode[K, V]{gen: gen}})
	ct := &Ctrie[K, V]{hash: hash, unversioned: unversioned, pool: pool}
	ct.root.Store(&rootRef[K, V]{in: root})
	return ct
}

func (ct *Ctrie[K, V]) hc(k K) uint32 {
	h := ct.hash(k)
	return uint32(h ^ (h >> 32))
}

// --- RDCSS on the root -------------------------------------------------

func (ct *Ctrie[K, V]) rdcssReadRootRef(abort bool) *rootRef[K, V] {
	for {
		r := ct.root.Load()
		if r.in != nil {
			return r
		}
		ct.rdcssComplete(abort)
	}
}

func (ct *Ctrie[K, V]) rdcssReadRoot(abort bool) *ctINode[K, V] {
	return ct.rdcssReadRootRef(abort).in
}

func (ct *Ctrie[K, V]) rdcssComplete(abort bool) {
	for {
		d := ct.root.Load()
		if d.in != nil {
			return
		}
		decided := rdcssAborted
		if !abort && ct.gcasRead(d.old.in) == d.expMain {
			decided = rdcssCommitted
		}
		d.outcome.CompareAndSwap(0, decided)
		next := d.old
		if d.outcome.Load() == rdcssCommitted {
			next = d.nv
		}
		ct.root.CompareAndSwap(d, next)
	}
}

// rdcssRoot swings ct's root from ov to nv if ov.in's main is still
// expMain, and reports whether it did; the caller is pinned and keeps nv
// when it did not. The descriptor comes from h's pool.
func (ct *Ctrie[K, V]) rdcssRoot(h *ctHandle[K, V], ov *rootRef[K, V], expMain *ctMain[K, V], nv *rootRef[K, V]) bool {
	d := h.newRoot()
	d.old, d.expMain, d.nv = ov, expMain, nv
	if !ct.root.CompareAndSwap(ov, d) {
		h.recycleRootNow(d) // never published
		return false
	}
	return ct.rdcssSettle(h, d)
}

// rdcssSettle completes the published descriptor d and retires it, and the
// root it displaced if it committed, to h's reader bin: the root has left d
// for good, and only pinned readers and helpers can still hold either.
func (ct *Ctrie[K, V]) rdcssSettle(h *ctHandle[K, V], d *rootRef[K, V]) bool {
	ct.rdcssComplete(false)
	ok := d.outcome.Load() == rdcssCommitted
	b := h.bin()
	b.addRoot(d)
	if ok {
		b.addRoot(d.old)
	}
	return ok
}

// --- GCAS on interior nodes --------------------------------------------

// gcas installs next over old under in. On failure it also disposes of
// next: a copy that lost the CAS was never published and goes straight
// back to the freelists, while a copy that was installed and then rolled
// back by the generation check was visible to readers and must age through
// the epoch before reuse.
func (ct *Ctrie[K, V]) gcas(h *ctHandle[K, V], in *ctINode[K, V], old, next *ctMain[K, V]) bool {
	if ct.unversioned {
		// A single generation forever: no snapshot can invalidate the
		// update between CAS and commit, so GCAS is a plain CAS.
		if in.main.CompareAndSwap(old, next) {
			return true
		}
		ct.recycleCopy(h, next)
		return false
	}
	next.prev.Store(old)
	if in.main.CompareAndSwap(old, next) {
		ct.gcasComplete(in, next)
		if next.prev.Load() == nil {
			return true
		}
		b := h.bin()
		if next.cn != nil {
			b.addCNode(next.cn)
		}
		b.addMain(next)
		return false
	}
	ct.recycleCopy(h, next)
	return false
}

func (ct *Ctrie[K, V]) gcasRead(in *ctINode[K, V]) *ctMain[K, V] {
	m := in.main.Load()
	if ct.unversioned {
		return m
	}
	if m.prev.Load() == nil {
		return m
	}
	return ct.gcasComplete(in, m)
}

func (ct *Ctrie[K, V]) gcasComplete(in *ctINode[K, V], m *ctMain[K, V]) *ctMain[K, V] {
	for {
		if m == nil {
			return nil
		}
		prev := m.prev.Load()
		if prev == nil {
			return m
		}
		if prev.failed != nil {
			// The GCAS failed: roll back to the previous main node.
			if in.main.CompareAndSwap(m, prev.failed) {
				return prev.failed
			}
			m = in.main.Load()
			continue
		}
		root := ct.rdcssReadRoot(true)
		if root.gen == in.gen && !ct.readOnly {
			if m.prev.CompareAndSwap(prev, nil) {
				return m
			}
			continue
		}
		// The node belongs to an older generation: fail the GCAS.
		m.prev.CompareAndSwap(prev, &ctMain[K, V]{failed: prev})
		m = in.main.Load()
	}
}

// --- displacement -------------------------------------------------------

// Every retire below runs after the displacing GCAS on in won, and files
// the node by its generation (Ctrie.binFor): displacement removed the
// only structural reference to it in in's trie, so what may still reach it
// is a reader of that trie — and, when it is of an older generation, the
// snapshots taken since it was built. A CNode and its main are created
// together, by the trie that owns cn.gen.

// retireDisplaced retires a successfully displaced cn-main. LNode mains
// are rare and go to the collector; a TNode main is never displaced, only
// unlinked with its INode (retireEdge).
func (ct *Ctrie[K, V]) retireDisplaced(h *ctHandle[K, V], in *ctINode[K, V], m *ctMain[K, V]) {
	if m.cn == nil {
		return
	}
	b := ct.binFor(h, in.gen, m.cn.gen)
	b.addCNode(m.cn)
	b.addMain(m)
}

// retireBranch retires a displaced branch box.
func (ct *Ctrie[K, V]) retireBranch(h *ctHandle[K, V], in *ctINode[K, V], x *ctBranch[K, V]) {
	ct.binFor(h, in.gen, x.gen).addBranch(x)
}

// retireEdge retires an unlinked INode edge: the box, the INode it points
// at and, when the INode is tombed, its TNode main (tomb, else nil). A
// tombed INode is never renewed (renew), so its main was built under the
// INode's generation and sits below no other INode; a live INode's main
// may (renew aliases it into the renewed INode) and stays.
func (ct *Ctrie[K, V]) retireEdge(h *ctHandle[K, V], in *ctINode[K, V], x *ctBranch[K, V], tomb *ctMain[K, V]) {
	child := x.in
	ct.retireBranch(h, in, x)
	b := ct.binFor(h, in.gen, child.gen)
	b.addINode(child)
	if tomb != nil {
		b.addMain(tomb)
	}
}

// recycleCopy returns a never-published replacement (a losing GCAS copy)
// straight to the freelists — no grace period needed.
func (ct *Ctrie[K, V]) recycleCopy(h *ctHandle[K, V], m *ctMain[K, V]) {
	if m.cn != nil {
		h.recycleCNodeNow(m.cn)
		m.cn = nil
	}
	h.recycleMainNow(m)
}

// --- CNode helpers -------------------------------------------------------

func ctFlagPos(hc uint32, lev uint, bmp uint32) (flag uint32, pos int) {
	idx := (hc >> lev) & 0x1f
	flag = uint32(1) << idx
	pos = bits.OnesCount32(bmp & (flag - 1))
	return flag, pos
}

// cowInserted builds a copy of cn with branch b inserted at pos.
func (ct *Ctrie[K, V]) cowInserted(h *ctHandle[K, V], cn *ctCNode[K, V], pos int, flag uint32, b *ctBranch[K, V], gen ctGen) *ctCNode[K, V] {
	ncn := h.newCNode(len(cn.array)+1, cn.bmp|flag, gen)
	copy(ncn.array, cn.array[:pos])
	ncn.array[pos] = b
	copy(ncn.array[pos+1:], cn.array[pos:])
	return ncn
}

// cowUpdated builds a copy of cn with slot pos replaced by b.
func (ct *Ctrie[K, V]) cowUpdated(h *ctHandle[K, V], cn *ctCNode[K, V], pos int, b *ctBranch[K, V], gen ctGen) *ctCNode[K, V] {
	ncn := h.newCNode(len(cn.array), cn.bmp, gen)
	copy(ncn.array, cn.array)
	ncn.array[pos] = b
	return ncn
}

// cowRemoved builds a copy of cn with slot pos removed.
func (ct *Ctrie[K, V]) cowRemoved(h *ctHandle[K, V], cn *ctCNode[K, V], pos int, flag uint32, gen ctGen) *ctCNode[K, V] {
	ncn := h.newCNode(len(cn.array)-1, cn.bmp&^flag, gen)
	copy(ncn.array, cn.array[:pos])
	copy(ncn.array[pos:], cn.array[pos+1:])
	return ncn
}

// renew returns the child INode at slot pos of in's CNode m.cn (in at
// level lev) for a writer of generation startgen to descend into: the
// child itself when it is of startgen, else a copy of that one child
// stamped startgen, which replaces it in a copy of the CNode. This is the
// whole of generation renewal: the siblings keep their older generation
// until a writer descends into them too. The displaced edge box and INode
// go the way of every displaced node (retireEdge); their main lives on in
// the copy. A tombed child is not renewed: in is cleaned instead, so a
// TNode main only ever sits below the INode it was built under. renew
// returns nil when the writer must restart: after a clean, or when the
// copy lost its GCAS (its INode and box then go to the garbage collector).
func (ct *Ctrie[K, V]) renew(h *ctHandle[K, V], in *ctINode[K, V], m *ctMain[K, V], pos int, lev uint, startgen ctGen) *ctINode[K, V] {
	old := m.cn.array[pos]
	if old.in.gen == startgen {
		return old.in
	}
	cm := ct.gcasRead(old.in)
	if cm.tn != nil {
		ct.clean(h, in, lev)
		return nil
	}
	nin := h.newINode(startgen, cm)
	nm := h.newMain(startgen)
	nm.cn = ct.cowUpdated(h, m.cn, pos, h.newINodeBranch(nin, startgen), startgen)
	if ct.gcas(h, in, m, nm) {
		ct.retireDisplaced(h, in, m)
		ct.retireEdge(h, in, old, nil)
		return nin
	}
	return nil
}

// toContracted entombs a single-SNode CNode below the root, recycling the
// (private, never-published) CNode it consumes if it contracts.
func (ct *Ctrie[K, V]) toContracted(h *ctHandle[K, V], cn *ctCNode[K, V], lev uint) *ctMain[K, V] {
	if lev > 0 && len(cn.array) == 1 {
		if b := cn.array[0]; b.in == nil {
			gen := cn.gen
			h.recycleCNodeNow(cn)
			m := h.newMain(gen)
			m.tn = b
			return m
		}
	}
	m := h.newMain(cn.gen)
	m.cn = cn
	return m
}

// toCompressed resurrects tombed children and contracts. Each resurrected
// (displaced) INode-edge box is appended to h.scratch: a TNode main is
// terminal, so a child seen tombed here stays tombed, and the caller may
// retire the recorded edges if (and only if) its GCAS wins. Re-reading
// child state after the GCAS would instead race with children that became
// tombed after the copy was taken — those are still reachable through the
// new CNode and must not be retired.
func (ct *Ctrie[K, V]) toCompressed(h *ctHandle[K, V], cn *ctCNode[K, V], lev uint, gen ctGen) *ctMain[K, V] {
	h.scratch = h.scratch[:0]
	ncn := h.newCNode(len(cn.array), cn.bmp, gen)
	for i, b := range cn.array {
		if b.in != nil {
			m := ct.gcasRead(b.in)
			if m != nil && m.tn != nil {
				ncn.array[i] = m.tn
				h.scratch = append(h.scratch, b)
				continue
			}
		}
		ncn.array[i] = b
	}
	return ct.toContracted(h, ncn, lev)
}

func (ct *Ctrie[K, V]) clean(h *ctHandle[K, V], in *ctINode[K, V], lev uint) {
	m := ct.gcasRead(in)
	if m != nil && m.cn != nil {
		nm := ct.toCompressed(h, m.cn, lev, in.gen)
		if ct.gcas(h, in, m, nm) {
			ct.retireDisplaced(h, in, m)
			ct.retireTombedEdges(h, in)
		}
		h.scratch = h.scratch[:0]
	}
}

// retireTombedEdges retires the INode edges recorded by toCompressed, and
// their terminal TNode mains, once the displacement won.
func (ct *Ctrie[K, V]) retireTombedEdges(h *ctHandle[K, V], in *ctINode[K, V]) {
	for _, b := range h.scratch {
		ct.retireEdge(h, in, b, ct.gcasRead(b.in))
	}
}

// ctDual builds the subtree holding two colliding SNode boxes.
func (ct *Ctrie[K, V]) ctDual(h *ctHandle[K, V], x *ctBranch[K, V], y *ctBranch[K, V], lev uint, gen ctGen) *ctMain[K, V] {
	if lev < 35 {
		xidx := (x.hc >> lev) & 0x1f
		yidx := (y.hc >> lev) & 0x1f
		bmp := (uint32(1) << xidx) | (uint32(1) << yidx)
		if xidx == yidx {
			sub := h.newINode(gen, ct.ctDual(h, x, y, lev+5, gen))
			ncn := h.newCNode(1, bmp, gen)
			ncn.array[0] = h.newINodeBranch(sub, gen)
			m := h.newMain(gen)
			m.cn = ncn
			return m
		}
		ncn := h.newCNode(2, bmp, gen)
		if xidx < yidx {
			ncn.array[0], ncn.array[1] = x, y
		} else {
			ncn.array[0], ncn.array[1] = y, x
		}
		m := h.newMain(gen)
		m.cn = ncn
		return m
	}
	return &ctMain[K, V]{ln: &ctLNode[K, V]{entries: []*ctBranch[K, V]{x, y}}}
}

// --- LNode helpers -------------------------------------------------------

func (ln *ctLNode[K, V]) get(k K) (V, bool) {
	for _, sn := range ln.entries {
		if sn.k == k {
			return sn.v, true
		}
	}
	var zero V
	return zero, false
}

func (ln *ctLNode[K, V]) inserted(sn *ctBranch[K, V]) *ctLNode[K, V] {
	out := &ctLNode[K, V]{entries: make([]*ctBranch[K, V], 0, len(ln.entries)+1)}
	replaced := false
	for _, e := range ln.entries {
		if e.k == sn.k {
			out.entries = append(out.entries, sn)
			replaced = true
		} else {
			out.entries = append(out.entries, e)
		}
	}
	if !replaced {
		out.entries = append(out.entries, sn)
	}
	return out
}

func (ln *ctLNode[K, V]) removed(k K) (*ctMain[K, V], V, bool) {
	idx := -1
	for i, e := range ln.entries {
		if e.k == k {
			idx = i
			break
		}
	}
	if idx == -1 {
		var zero V
		return nil, zero, false
	}
	old := ln.entries[idx].v
	rest := make([]*ctBranch[K, V], 0, len(ln.entries)-1)
	rest = append(rest, ln.entries[:idx]...)
	rest = append(rest, ln.entries[idx+1:]...)
	if len(rest) == 1 {
		return &ctMain[K, V]{tn: rest[0]}, old, true
	}
	return &ctMain[K, V]{ln: &ctLNode[K, V]{entries: rest}}, old, true
}

// --- public operations ---------------------------------------------------

// Get returns the value for k.
func (ct *Ctrie[K, V]) Get(k K) (V, bool) {
	hc := ct.hc(k)
	h := ct.pool.get()
	h.pin()
	v, ok := ct.ilookup(ct.rdcssReadRoot(false), k, hc, 0)
	h.unpin()
	ct.pool.put(h)
	return v, ok
}

// Contains reports whether k is present.
func (ct *Ctrie[K, V]) Contains(k K) bool {
	_, ok := ct.Get(k)
	return ok
}

// Put stores v under k and returns the previous value, if any.
func (ct *Ctrie[K, V]) Put(k K, v V) (V, bool) {
	if ct.readOnly {
		panic("conc: Put on read-only Ctrie snapshot")
	}
	hc := ct.hc(k)
	h := ct.pool.get()
	h.pin()
	var old V
	var had bool
	for {
		r := ct.rdcssReadRoot(false)
		var restart bool
		old, had, restart = ct.iinsert(h, r, k, v, hc, 0, nil, r.gen)
		if !restart {
			break
		}
	}
	ct.done(h)
	return old, had
}

// Remove deletes k and returns the removed value, if any.
func (ct *Ctrie[K, V]) Remove(k K) (V, bool) {
	if ct.readOnly {
		panic("conc: Remove on read-only Ctrie snapshot")
	}
	hc := ct.hc(k)
	h := ct.pool.get()
	h.pin()
	var old V
	var had bool
	for {
		r := ct.rdcssReadRoot(false)
		var restart bool
		old, had, restart = ct.iremove(h, r, k, hc, 0, nil, r.gen)
		if !restart {
			break
		}
	}
	ct.done(h)
	return old, had
}

// done ends an operation on ct with handle h, releasing the record it
// locked, if any, and filing what it set aside.
func (ct *Ctrie[K, V]) done(h *ctHandle[K, V]) {
	if h.foreign != nil {
		h.foreign.mu.Unlock()
		h.foreign = nil
	}
	if !h.aside.empty() {
		h.file(&h.aside)
		h.aside.drop()
	}
	h.unpin()
	ct.pool.put(h)
}

// Snapshot returns a mutable snapshot, O(1) in the size of the trie. The
// snapshot and the original evolve independently; writers lazily copy the
// paths they touch. Proust uses one snapshot per transaction as the shadow
// copy, and either hands it back with Discard or makes it the source's
// contents with Adopt. A snapshot that is never discarded is just as
// correct, but it holds its pin forever: the nodes it reaches that its
// source displaces fill capped bins and overflow to the garbage collector
// instead of being reused.
func (ct *Ctrie[K, V]) Snapshot() *Ctrie[K, V] {
	return ct.snapshot(false)
}

// ReadOnlySnapshot returns a read-only snapshot, O(1) in the size of the
// trie; mutating it panics. Like a mutable one, it is handed back with
// Discard (the snapshot of a read-only trie is the trie itself).
func (ct *Ctrie[K, V]) ReadOnlySnapshot() *Ctrie[K, V] {
	if ct.readOnly {
		return ct
	}
	return ct.snapshot(true)
}

// snapshot gives ct a root of a fresh generation, which freezes every node
// reachable at that instant, and returns a trie over the frozen nodes: the
// old root itself for a read-only snapshot, a root of a new lineage for a
// mutable one. The fresh generation's seq is the snapshot's point, stored
// in its pin slot before the RDCSS: every node the RDCSS freezes was built
// under ct's current generation or an older one, so it was born before the
// point, and any node the snapshot can reach is displaced after its slot
// is visible.
func (ct *Ctrie[K, V]) snapshot(readOnly bool) *Ctrie[K, V] {
	if ct.unversioned {
		panic("conc: snapshot of unversioned Ctrie")
	}
	h := ct.pool.get()
	h.pin()
	snap := h.newHeader()
	snap.hash, snap.readOnly, snap.pool = ct.hash, readOnly, ct.pool
	nv := h.newRoot()
	for {
		rref := ct.rdcssReadRootRef(false)
		r := rref.in
		expMain := ct.gcasRead(r)
		gen := ct.pool.newGen(r.gen.line)
		nv.in = h.newINode(gen, expMain)
		if snap.pin == nil {
			snap.pin = ct.pool.pinSnapshot(gen.seq, ct.pin)
		} else {
			snap.pin.raise(gen.seq) // a retry: the first point still counts
		}
		if !ct.rdcssRoot(h, rref, expMain, nv) {
			h.recycleINodeNow(nv.in) // a helper swings the root to nv only on commit
			continue
		}
		// r is frozen now with main expMain: its generation is no trie's.
		sr := h.newRoot()
		if readOnly {
			sr.in = r
		} else {
			sr.in = h.newINode(ct.pool.newLine(), expMain)
			snap.src = expMain
			snap.foreign = ct.pool.foreigns.Get().(*ctForeign[K, V])
			h.bin().addINode(r) // no snapshot holds the root it displaced
		}
		snap.root.Store(sr)
		h.unpin()
		ct.pool.put(h)
		return snap
	}
}

// Discard hands the trie's private nodes back to the allocator and, for a
// snapshot, releases its hold on the nodes it shares with its source. The
// caller promises that it owns ct exclusively — no other goroutine is
// inside an operation on ct, and nobody will use ct again: ct's header and
// root object go back to the pool, and a later use reaches whatever they
// became. Snapshots taken of ct earlier are unaffected and stay usable.
//
// Only nodes stamped with ct's own (root) generation are walked. That
// generation was created for ct alone — a snapshot gives both sides fresh
// ones — so those nodes were built by ct's own operations and published
// only into ct's tree: no other trie and, given the promise, no reader can
// hold them, and they skip the grace period. Nodes ct displaced were
// retired when they were displaced and are not reachable any more, so
// nothing is freed twice. Older-generation nodes are shared with other
// tries and are not touched; neither are the ones recorded as displaced
// from another lineage, which the record drops. A read-only snapshot's root
// is the root INode its source displaced, which only readers of the source
// pinned since may still hold: it waits out a reader grace period, and
// nothing below it is given back.
func (ct *Ctrie[K, V]) Discard() {
	h := ct.pool.get()
	h.pin()
	r := ct.rdcssReadRootRef(false)
	ct.root.Store(nil)
	b := h.bin()
	if ct.readOnly {
		b.addINode(r.in)
	} else {
		h.discard(r.in)
	}
	if f := ct.foreign; f != nil {
		f.drop()
		ct.pool.foreigns.Put(f)
		ct.foreign, ct.src = nil, nil
	}
	ct.pool.unpinSnapshot(ct.pin)
	ct.pin = nil
	b.addRoot(r)
	b.addHeader(ct)
	h.unpin()
	ct.pool.put(h)
}

// Adopt makes snap's contents ct's, in O(1): ct takes snap's root, and snap,
// as after Discard, must not be used again. ct must be no snapshot itself,
// and snap a mutable snapshot of ct taken while ct held the state it still
// holds — no write to ct since — or Adopt panics. Like Discard it requires
// exclusive ownership of snap; readers of ct may run throughout.
//
// The nodes snap displaced from other lineages were shared with ct, and
// once ct's root is swapped no longer reachable from it: only the snapshots
// taken before can still see them, so they are filed as if ct had
// displaced them itself. (Were ct a snapshot, they could still be live in
// its own source.) snap's pin is released first: its point lies in every
// recorded node's span, and snap reaches none of them any more. snap's root
// object becomes ct's; ct's displaced root INode and root object, the
// descriptor and snap's header go to the reader bin.
func (ct *Ctrie[K, V]) Adopt(snap *Ctrie[K, V]) {
	if ct.pin != nil || snap.foreign == nil {
		panic("conc: Adopt into a snapshot, or of a trie that is no mutable snapshot")
	}
	h := ct.pool.get()
	h.pin()
	nv := snap.rdcssReadRootRef(false)
	for {
		rref := ct.rdcssReadRootRef(false)
		if ct.gcasRead(rref.in) != snap.src {
			panic("conc: Adopt of a snapshot whose source has changed since")
		}
		if ct.rdcssRoot(h, rref, snap.src, nv) {
			h.bin().addINode(rref.in)
			break
		}
	}
	snap.root.Store(nil)
	ct.pool.unpinSnapshot(snap.pin)
	f := snap.foreign
	h.file(&f.ctBin)
	f.drop()
	ct.pool.foreigns.Put(f)
	snap.foreign, snap.src, snap.pin = nil, nil, nil
	h.bin().addHeader(snap)
	h.unpin()
	ct.pool.put(h)
}

// Range calls f over the map until f returns false. On a versioned trie it
// iterates a consistent read-only snapshot; on an unversioned trie it
// walks the live structure and is weakly consistent (like sync.Map): keys
// not mutated during the walk are each seen exactly once.
func (ct *Ctrie[K, V]) Range(f func(K, V) bool) {
	src := ct
	if !ct.unversioned && !ct.readOnly {
		src = ct.snapshot(true)
		defer src.Discard()
	}
	h := src.pool.get()
	h.pin()
	src.walk(h, src.rdcssReadRoot(false), f)
	h.unpin()
	src.pool.put(h)
}

// Len counts the entries; consistency matches Range.
func (ct *Ctrie[K, V]) Len() int {
	n := 0
	ct.Range(func(K, V) bool {
		n++
		return true
	})
	return n
}

func (ct *Ctrie[K, V]) walk(h *ctHandle[K, V], in *ctINode[K, V], f func(K, V) bool) bool {
	m := ct.gcasRead(in)
	switch {
	case m == nil:
		return true
	case m.cn != nil:
		for _, b := range m.cn.array {
			if b.in != nil {
				if !ct.walk(h, b.in, f) {
					return false
				}
			} else if !f(b.k, b.v) {
				return false
			}
		}
	case m.tn != nil:
		return f(m.tn.k, m.tn.v)
	case m.ln != nil:
		for _, sn := range m.ln.entries {
			if !f(sn.k, sn.v) {
				return false
			}
		}
	}
	return true
}

// --- core recursive operations -------------------------------------------
//
// The renewal invariant: an INode is mutated only by an operation whose
// start generation equals the INode's — gcasComplete fails every other
// GCAS — so writers descend only through INodes of their own generation,
// renewing an older child first (renew), and every INode of an older
// generation is frozen. A CNode may therefore hold older-generation
// children for as long as no writer needs them.

// ilookup never copies: it reads through older-generation INodes. Those are
// frozen, so what it finds below one is the state as of its last read of a
// current-generation INode's main, and that read is where the lookup
// linearizes. A writer that later wants to change anything down there must
// first replace that main (renew).
func (ct *Ctrie[K, V]) ilookup(in *ctINode[K, V], k K, hc uint32, lev uint) (V, bool) {
	var zero V
	m := ct.gcasRead(in)
	switch {
	case m.cn != nil:
		cn := m.cn
		flag, pos := ctFlagPos(hc, lev, cn.bmp)
		if cn.bmp&flag == 0 {
			return zero, false
		}
		b := cn.array[pos]
		if b.in != nil {
			return ct.ilookup(b.in, k, hc, lev+5)
		}
		if b.hc == hc && b.k == k {
			return b.v, true
		}
	case m.tn != nil:
		// A TNode is terminal: the tomb is read, not cleaned. Compression is
		// left to writers, so a reader only ever helps finish a change some
		// writer began, never begins one (which Adopt relies on).
		if m.tn.hc == hc && m.tn.k == k {
			return m.tn.v, true
		}
	case m.ln != nil:
		return m.ln.get(k)
	}
	return zero, false
}

func (ct *Ctrie[K, V]) iinsert(h *ctHandle[K, V], in *ctINode[K, V], k K, v V, hc uint32, lev uint, parent *ctINode[K, V], startgen ctGen) (V, bool, bool) {
	var zero V
	m := ct.gcasRead(in)
	switch {
	case m.cn != nil:
		cn := m.cn
		flag, pos := ctFlagPos(hc, lev, cn.bmp)
		if cn.bmp&flag == 0 {
			nm := h.newMain(in.gen)
			nm.cn = ct.cowInserted(h, cn, pos, flag, h.newSNode(hc, k, v, in.gen), in.gen)
			if ct.gcas(h, in, m, nm) {
				ct.retireDisplaced(h, in, m)
				return zero, false, false
			}
			return zero, false, true
		}
		b := cn.array[pos]
		switch {
		case b.in != nil:
			child := ct.renew(h, in, m, pos, lev, startgen)
			if child == nil {
				return zero, false, true
			}
			return ct.iinsert(h, child, k, v, hc, lev+5, in, startgen)
		case b.hc == hc && b.k == k:
			nm := h.newMain(in.gen)
			nm.cn = ct.cowUpdated(h, cn, pos, h.newSNode(hc, k, v, in.gen), in.gen)
			if ct.gcas(h, in, m, nm) {
				ct.retireDisplaced(h, in, m)
				ct.retireBranch(h, in, b)
				return b.v, true, false
			}
			return zero, false, true
		default:
			// Hash path collision: split into a subtree.
			nsn := h.newSNode(hc, k, v, in.gen)
			nin := h.newINode(in.gen, ct.ctDual(h, b, nsn, lev+5, in.gen))
			nm := h.newMain(in.gen)
			nm.cn = ct.cowUpdated(h, cn, pos, h.newINodeBranch(nin, in.gen), in.gen)
			if ct.gcas(h, in, m, nm) {
				ct.retireDisplaced(h, in, m)
				return zero, false, false
			}
			return zero, false, true
		}
	case m.tn != nil:
		ct.clean(h, parent, lev-5)
		return zero, false, true
	case m.ln != nil:
		old, had := m.ln.get(k)
		nln := m.ln.inserted(h.newSNode(hc, k, v, in.gen))
		nm := h.newMain(in.gen)
		nm.ln = nln
		if ct.gcas(h, in, m, nm) {
			return old, had, false
		}
		return zero, false, true
	}
	return zero, false, true
}

func (ct *Ctrie[K, V]) iremove(h *ctHandle[K, V], in *ctINode[K, V], k K, hc uint32, lev uint, parent *ctINode[K, V], startgen ctGen) (V, bool, bool) {
	var zero V
	m := ct.gcasRead(in)
	switch {
	case m.cn != nil:
		cn := m.cn
		flag, pos := ctFlagPos(hc, lev, cn.bmp)
		if cn.bmp&flag == 0 {
			return zero, false, false
		}
		var (
			res     V
			removed bool
			restart bool
		)
		b := cn.array[pos]
		if b.in != nil {
			child := ct.renew(h, in, m, pos, lev, startgen)
			if child == nil {
				return zero, false, true
			}
			res, removed, restart = ct.iremove(h, child, k, hc, lev+5, in, startgen)
		} else if b.hc == hc && b.k == k {
			nm := ct.toContracted(h, ct.cowRemoved(h, cn, pos, flag, in.gen), lev)
			if ct.gcas(h, in, m, nm) {
				ct.retireDisplaced(h, in, m)
				ct.retireBranch(h, in, b)
				res, removed = b.v, true
			} else {
				restart = true
			}
		}
		if restart {
			return zero, false, true
		}
		if removed && parent != nil {
			cur := ct.gcasRead(in)
			if cur != nil && cur.tn != nil {
				ct.cleanParent(h, parent, in, hc, lev-5, startgen)
			}
		}
		return res, removed, false
	case m.tn != nil:
		ct.clean(h, parent, lev-5)
		return zero, false, true
	case m.ln != nil:
		nmain, old, had := m.ln.removed(k)
		if !had {
			return zero, false, false
		}
		if ct.gcas(h, in, m, nmain) {
			return old, true, false
		}
		return zero, false, true
	}
	return zero, false, true
}

// cleanParent unlinks a tombed INode from its parent CNode.
func (ct *Ctrie[K, V]) cleanParent(h *ctHandle[K, V], parent, in *ctINode[K, V], hc uint32, plev uint, startgen ctGen) {
	for {
		pm := ct.gcasRead(parent)
		if pm == nil || pm.cn == nil {
			return
		}
		cn := pm.cn
		flag, pos := ctFlagPos(hc, plev, cn.bmp)
		if cn.bmp&flag == 0 {
			return
		}
		sub := cn.array[pos]
		if sub.in != in {
			return
		}
		m := ct.gcasRead(in)
		if m == nil || m.tn == nil {
			return
		}
		nm := ct.toContracted(h, ct.cowUpdated(h, cn, pos, m.tn, parent.gen), plev)
		if ct.gcas(h, parent, pm, nm) {
			// The unlinked INode, its edge box and its TNode main are
			// unreachable now; a TNode main is terminal, so in cannot have
			// un-tombed.
			ct.retireDisplaced(h, parent, pm)
			ct.retireEdge(h, parent, sub, m)
			return
		}
		if ct.rdcssReadRoot(false).gen != startgen {
			return
		}
	}
}
