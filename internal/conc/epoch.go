package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// epoch.go is a small epoch-based reclamation (EBR/QSBR) facility in the
// style of Fraser's epoch scheme: participants announce the global epoch
// while they hold references into a shared structure ("pinned"), retired
// memory is tagged with the epoch at retirement, and a retired object may
// be reused once the global epoch has advanced twice past its tag — at
// that point every pinned section that could have observed it has ended.
//
// The facility exists so lock-free structures in this package (the Ctrie,
// the skiplist, EpochPool users) can pool and reuse retired nodes instead
// of leaving every displaced node to the garbage collector. It is
// deliberately tiny: a global epoch counter, a registry of padded
// participant slots whose released entries are handed out again, and one
// operation (tryAdvance). The parts every pooled handle is built from (a
// participant, its retire bins and freelists) are in epochpool.go.

// ebrGrace is the number of epoch advances that must be observed after an
// object is retired before it may be reused: a participant pinned at epoch
// e can hold references retired at e or e-1, so retire-at-e is safe to
// free once the global epoch reaches e+2.
const ebrGrace = 2

// ebrSlot is one participant's announcement word, padded to a cache line
// so concurrent pin/unpin traffic from different participants does not
// false-share. state is epoch<<1 | active.
type ebrSlot struct {
	state atomic.Uint64
	_     [56]byte
}

func (s *ebrSlot) pin(global *atomic.Uint64) uint64 {
	e := global.Load()
	// A single announcement is enough: announcing an epoch that is already
	// stale merely delays advancement, it never lets reclamation run early.
	s.state.Store(e<<1 | 1)
	return e
}

func (s *ebrSlot) unpin() {
	s.state.Store(s.state.Load() &^ 1)
}

// SlotRegistry hands out per-participant slots of type S and publishes
// every slot it ever made for lock-free scans. A released slot is handed
// out again instead of a new one, so a registry whose slots go back when
// their owners die (RegisterFor) is bounded by its peak number of live
// owners, not by owner churn. The zero value is empty and ready to use.
type SlotRegistry[S any] struct {
	mu sync.Mutex
	// slots is every slot ever created. A new slot is appended into spare
	// capacity when there is some: scanners of an older header see only
	// their own prefix, so registration copies the registry only when the
	// backing array doubles.
	slots atomic.Pointer[[]*S]
	free  []*S // released slots, handed out again by register
}

// Slots returns every slot ever handed out, released ones included, for a
// lock-free scan: a released slot must read as idle.
func (r *SlotRegistry[S]) Slots() []*S {
	if p := r.slots.Load(); p != nil {
		return *p
	}
	return nil
}

// Free returns the number of released slots waiting to be handed out again.
func (r *SlotRegistry[S]) Free() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.free)
}

// register hands out a released slot when there is one, else a new zero
// slot appended to the registry (amortised O(1)).
func (r *SlotRegistry[S]) register() *S {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return s
	}
	s := new(S)
	next := append(r.Slots(), s)
	r.slots.Store(&next)
	return s
}

// release returns an idle slot for register to hand out again.
func (r *SlotRegistry[S]) release(s *S) {
	r.mu.Lock()
	r.free = append(r.free, s)
	r.mu.Unlock()
}

// RegisterFor hands out a slot of r that goes back to r once owner is
// unreachable. Owners are typically pooled (participant handles live in a
// sync.Pool, which drops them across two collections, and at random under
// the race detector): without the release every dropped owner would leave a
// dead slot that every scan walks forever. The slot must be idle by the
// time owner is unreachable.
func RegisterFor[S, T any](r *SlotRegistry[S], owner *T) *S {
	s := r.register()
	runtime.AddCleanup(owner, r.release, s)
	return s
}

// ebr is one reclamation domain. Structures that share retired memory
// (a Ctrie and its snapshots) must share one domain.
type ebr struct {
	global atomic.Uint64
	slots  SlotRegistry[ebrSlot]
}

// tryAdvance attempts to move the global epoch forward by one. It fails if
// any participant is pinned at an epoch other than the current one — that
// participant may still hold references retired two epochs back.
func (e *ebr) tryAdvance() bool {
	cur := e.global.Load()
	for _, s := range e.slots.Slots() {
		st := s.state.Load()
		if st&1 == 1 && st>>1 != cur {
			return false
		}
	}
	return e.global.CompareAndSwap(cur, cur+1)
}
