package conc

import "sync"

// epochpool.go generalizes the Ctrie's allocator-cache pattern (ctriepool.go)
// into an exported, type-parameterized facility: an EpochPool[T] is one
// reclamation domain (epoch.go) plus a cache of per-participant handles, each
// carrying the participant's epoch slot, three rotating retire bins and a
// typed freelist that allocation is served from. Callers outside this package
// (the STM's multi-version reference histories, future backing structures)
// use it to pool nodes that lock-free readers may still be traversing after
// displacement:
//
//	h := pool.Get()
//	h.Pin()                    // readers: pin around every traversal
//	... traverse / h.Alloc() / h.Retire(displaced) ...
//	h.Unpin()
//	pool.Put(h)
//
// The contract mirrors ctriepool.go exactly: Retire a node only after it has
// been unlinked (unreachable to new readers), overwrite every field of an
// Alloc'd node before publishing it (freelist nodes carry stale contents),
// and Recycle never-published nodes directly. A retired node returns to the
// freelist once the global epoch has advanced ebrGrace times past its retire
// bin's tag — by then every pinned section that could have observed it has
// ended.

// epAdvanceEvery is the pin cadence at which a handle volunteers to advance
// the epoch and drain its expired bins (same cadence as the Ctrie pool).
const epAdvanceEvery = 32

// epBin is one epoch residue class of retired nodes.
type epBin[T any] struct {
	epoch uint64
	items []*T
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
	p := &EpochPool[T]{ebr: newEBR(), cap: capPerHandle, reset: reset}
	p.handles.New = func() any {
		h := &EpochHandle[T]{pool: p}
		h.slot = registerFor(p.ebr, h)
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

// Synchronize blocks until a full grace period has elapsed: every pinned
// section in flight when it was called has ended. The caller must not be
// pinned. Intended for tests and teardown paths.
func (p *EpochPool[T]) Synchronize() {
	p.ebr.synchronize()
}

// EpochHandle is one participant's view of an EpochPool.
type EpochHandle[T any] struct {
	pool *EpochPool[T]
	slot *ebrSlot
	ops  uint64

	bins [3]epBin[T]
	free []*T
}

// Pin announces the participant as active: nodes reachable at any point while
// pinned will not be reused until after Unpin. Periodically volunteers to
// advance the epoch and drain the handle's expired bins.
func (h *EpochHandle[T]) Pin() {
	h.slot.pin(&h.pool.ebr.global)
	h.ops++
	if h.ops%epAdvanceEvery == 0 {
		h.pool.ebr.tryAdvance()
		h.drainExpired()
	}
}

// Unpin ends the pinned section.
func (h *EpochHandle[T]) Unpin() {
	h.slot.unpin()
}

// Alloc returns a node from the freelist, or a fresh zero node when the
// freelist is empty. Freelist nodes carry stale field values; the caller must
// overwrite every field before publication.
func (h *EpochHandle[T]) Alloc() *T {
	if n := len(h.free); n > 0 {
		x := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		return x
	}
	return new(T)
}

// Retire hands an unlinked node to the current epoch's bin; it returns to the
// freelist once the epoch has advanced ebrGrace times past the bin's tag.
func (h *EpochHandle[T]) Retire(x *T) {
	b := h.bin()
	b.items = append(b.items, x)
}

// Recycle returns a never-published node (e.g. a losing CAS copy) straight to
// the freelist, skipping the grace period.
func (h *EpochHandle[T]) Recycle(x *T) {
	if len(h.free) >= h.pool.cap {
		return
	}
	if h.pool.reset != nil {
		h.pool.reset(x)
	}
	h.free = append(h.free, x)
}

// bin returns the retire bin for the current epoch, draining the residue
// class first if it still holds a fully-aged previous cohort (tags in one
// class differ by a multiple of 3 ≥ ebrGrace+1, so the old cohort is safe).
func (h *EpochHandle[T]) bin() *epBin[T] {
	e := h.pool.ebr.global.Load()
	b := &h.bins[e%3]
	if b.epoch != e {
		h.drainBin(b)
		b.epoch = e
	}
	return b
}

// drainExpired moves every fully-aged bin to the freelist.
func (h *EpochHandle[T]) drainExpired() {
	g := h.pool.ebr.global.Load()
	for i := range h.bins {
		b := &h.bins[i]
		if b.epoch+ebrGrace <= g {
			h.drainBin(b)
		}
	}
}

func (h *EpochHandle[T]) drainBin(b *epBin[T]) {
	for i, x := range b.items {
		h.Recycle(x)
		b.items[i] = nil
	}
	b.items = b.items[:0]
}
