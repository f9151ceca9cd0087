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
// participant slots whose released entries are handed out again, and two
// operations (tryAdvance, synchronize). Typed retire lists live with the
// callers (see ctriepool.go), keyed by the epoch tag this package hands out.

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

// ebr is one reclamation domain. Structures that share retired memory
// (a Ctrie and its snapshots) must share one domain.
type ebr struct {
	global atomic.Uint64

	mu sync.Mutex
	// slots is every slot ever created, published for tryAdvance's lock-free
	// scan. A new slot is appended into spare capacity when there is some:
	// readers of an older header see only their own prefix, so registration
	// copies the registry only when the backing array doubles.
	slots atomic.Pointer[[]*ebrSlot]
	free  []*ebrSlot // released slots, handed out again by register
}

func newEBR() *ebr {
	e := &ebr{}
	empty := make([]*ebrSlot, 0)
	e.slots.Store(&empty)
	return e
}

// register hands out an unpinned participant slot: a released one when
// there is one, else a new one appended to the registry (amortised O(1)).
// An unpinned slot never blocks advancement.
func (e *ebr) register() *ebrSlot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return s
	}
	s := &ebrSlot{}
	next := append(*e.slots.Load(), s)
	e.slots.Store(&next)
	return s
}

// release returns an unpinned slot for register to hand out again.
func (e *ebr) release(s *ebrSlot) {
	e.mu.Lock()
	e.free = append(e.free, s)
	e.mu.Unlock()
}

// registerFor registers a slot that goes back to the domain once owner is
// unreachable. Participant handles live in a sync.Pool, which drops them
// across two collections (and at random under the race detector); without
// the release every dropped handle would leave a dead slot that tryAdvance
// scans forever, so the registry is bounded by live handles, not by churn.
func registerFor[T any](e *ebr, owner *T) *ebrSlot {
	s := e.register()
	runtime.AddCleanup(owner, e.release, s)
	return s
}

// tryAdvance attempts to move the global epoch forward by one. It fails if
// any participant is pinned at an epoch other than the current one — that
// participant may still hold references retired two epochs back.
func (e *ebr) tryAdvance() bool {
	cur := e.global.Load()
	for _, s := range *e.slots.Load() {
		st := s.state.Load()
		if st&1 == 1 && st>>1 != cur {
			return false
		}
	}
	return e.global.CompareAndSwap(cur, cur+1)
}

// synchronize blocks until a full grace period has elapsed: every pinned
// section that was in flight when it was called has ended. The caller must
// NOT be pinned. Cost is bounded by the duration of in-flight operations,
// not by the size of any structure.
func (e *ebr) synchronize() {
	target := e.global.Load() + ebrGrace
	for e.global.Load() < target {
		if !e.tryAdvance() {
			runtime.Gosched()
		}
	}
}
