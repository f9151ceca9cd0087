package conc

import "sync"

// epochpool.go holds the one decision of when a retired node may be reused,
// as three parts every pooled handle in this package is built from:
//
//   - participant: a handle's epoch slot plus the pin count that paces its
//     volunteer advances of the epoch;
//   - epochBins: three retire bins rotated by epoch residue mod 3, each
//     drained once its cohort has aged ebrGrace epochs;
//   - freeList: the capped stack allocation is served from.
//
// EpochPool[T] assembles them into an exported, type-parameterized pool for
// one node type; the skiplist (skiplist.go) and the Ctrie (ctriepool.go)
// assemble their own handles from the same parts for several node kinds.
// Callers outside this package (the STM's multi-version reference
// histories) use EpochPool to pool nodes that lock-free readers may still
// be traversing after displacement:
//
//	h := pool.Get()
//	h.Pin()                    // readers: pin around every traversal
//	... traverse / h.Alloc() / h.Retire(displaced) ...
//	h.Unpin()
//	pool.Put(h)
//
// The contract is the same for every pooled handle: Retire a node only
// after it has been unlinked (unreachable to new readers), and overwrite
// every field of an Alloc'd node before publishing it (freelist nodes carry
// stale contents). A retired node returns to the freelist once the global
// epoch has advanced ebrGrace times past its retire bin's tag — by then
// every pinned section that could have observed it has ended.

// advanceEvery is the pin cadence at which a participant volunteers to
// advance the epoch and drain its handle's expired bins.
const advanceEvery = 32

// participant is a handle's seat in a reclamation domain: its epoch slot
// and the pin count that paces its volunteer advances.
type participant struct {
	ebr  *ebr
	slot *ebrSlot
	pins uint64
}

// join seats owner, the handle that embeds the result, in e; the slot goes
// back to e once owner is unreachable.
func join[H any](e *ebr, owner *H) participant {
	return participant{ebr: e, slot: RegisterFor(&e.slots, owner)}
}

// pin announces the participant as active. Every advanceEvery-th pin it
// also tries to advance the epoch and reports true: the handle then drains
// its expired bins.
func (p *participant) pin() bool {
	p.slot.pin(&p.ebr.global)
	p.pins++
	if p.pins%advanceEvery != 0 {
		return false
	}
	p.ebr.tryAdvance()
	return true
}

func (p *participant) unpin() {
	p.slot.unpin()
}

// epoch returns the domain's current epoch.
func (p *participant) epoch() uint64 {
	return p.ebr.global.Load()
}

// epochBins are a handle's three retire bins, one per epoch residue class
// mod 3, each holding one cohort tagged with the epoch it was retired in.
// Tags in one class differ by a multiple of 3 ≥ ebrGrace+1, so the cohort a
// bin still holds when its class comes round again has aged out.
type epochBins[B any] struct {
	tag [3]uint64
	bin [3]B
}

// at returns the bin of epoch e, draining the class's previous cohort first.
func (bs *epochBins[B]) at(e uint64, drain func(*B)) *B {
	i := e % 3
	if bs.tag[i] != e {
		drain(&bs.bin[i])
		bs.tag[i] = e
	}
	return &bs.bin[i]
}

// expire drains every bin whose cohort has aged out by epoch e.
func (bs *epochBins[B]) expire(e uint64, drain func(*B)) {
	for i := range bs.bin {
		if bs.tag[i]+ebrGrace <= e {
			drain(&bs.bin[i])
		}
	}
}

// freeList is a handle's stack of reusable nodes of one kind.
type freeList[T any] []*T

// pop returns a reusable node, or nil when there is none. The vacated slot
// is not cleared, a store every allocation would pay: the node is in use
// from here on, and should its owner later leave it to the collector, the
// stale slot holds that one node only until the next push overwrites it.
func (f *freeList[T]) pop() *T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	x := (*f)[n-1]
	*f = (*f)[:n-1]
	return x
}

// push keeps x unless the list already holds limit nodes (then x is left
// to the garbage collector), and reports whether it did: the caller then
// clears x's fields.
func (f *freeList[T]) push(x *T, limit int) bool {
	if len(*f) >= limit {
		return false
	}
	*f = append(*f, x)
	return true
}

// EpochPool is one reclamation domain plus its handle cache. Structures that
// share retired memory must share one pool; independent structures should use
// independent pools so one structure's pinned readers do not delay another's
// reclamation.
type EpochPool[T any] struct {
	ebr     *ebr
	cap     int
	reset   func(*T)
	handles sync.Pool
}

// NewEpochPool creates a pool whose per-handle freelist keeps at most
// capPerHandle nodes (beyond that, recycled nodes are dropped to the GC).
// reset, when non-nil, runs on every node entering the freelist — after its
// grace period, so no reader can still observe the node — and should clear
// pointer fields so freelist residency does not pin displaced memory.
func NewEpochPool[T any](capPerHandle int, reset func(*T)) *EpochPool[T] {
	if capPerHandle <= 0 {
		capPerHandle = 256
	}
	p := &EpochPool[T]{ebr: new(ebr), cap: capPerHandle, reset: reset}
	p.handles.New = func() any {
		h := &EpochHandle[T]{pool: p}
		h.participant = join(p.ebr, h)
		return h
	}
	return p
}

// Get borrows a handle. Handles are recycled through a sync.Pool, and the
// epoch slot of a handle the pool drops (or a caller never returns) goes back
// to the domain once the handle is collected, so the number of registered
// slots is bounded by the peak number of live handles.
func (p *EpochPool[T]) Get() *EpochHandle[T] {
	return p.handles.Get().(*EpochHandle[T])
}

// Put returns a handle. The caller must be unpinned.
func (p *EpochPool[T]) Put(h *EpochHandle[T]) {
	p.handles.Put(h)
}

// EpochHandle is one participant's view of an EpochPool.
type EpochHandle[T any] struct {
	participant
	pool *EpochPool[T]
	bins epochBins[[]*T]
	free freeList[T]
}

// Pin announces the participant as active: nodes reachable at any point while
// pinned will not be reused until after Unpin. Periodically volunteers to
// advance the epoch and drain the handle's expired bins.
func (h *EpochHandle[T]) Pin() {
	if h.pin() {
		h.bins.expire(h.epoch(), h.drain)
	}
}

// Unpin ends the pinned section.
func (h *EpochHandle[T]) Unpin() {
	h.unpin()
}

// Alloc returns a node from the freelist, or a fresh zero node when the
// freelist is empty. Freelist nodes carry stale field values; the caller must
// overwrite every field before publication.
func (h *EpochHandle[T]) Alloc() *T {
	if x := h.free.pop(); x != nil {
		return x
	}
	return new(T)
}

// Retire hands an unlinked node to the current epoch's bin; it returns to the
// freelist once the epoch has advanced ebrGrace times past the bin's tag.
func (h *EpochHandle[T]) Retire(x *T) {
	b := h.bins.at(h.epoch(), h.drain)
	*b = append(*b, x)
}

// drain moves an aged-out cohort to the freelist.
func (h *EpochHandle[T]) drain(b *[]*T) {
	for i, x := range *b {
		if h.free.push(x, h.pool.cap) && h.pool.reset != nil {
			h.pool.reset(x)
		}
		(*b)[i] = nil
	}
	*b = (*b)[:0]
}
