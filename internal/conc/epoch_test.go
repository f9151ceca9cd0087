package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEBRPinBlocksAdvance pins a participant and checks the advancement
// rule directly: a participant pinned at the current epoch never blocks an
// advance, a participant pinned at an older epoch always does.
func TestEBRPinBlocksAdvance(t *testing.T) {
	e := newEBR()
	s := e.register()

	s.pin(&e.global)
	if !e.tryAdvance() {
		t.Fatal("advance failed with the only participant pinned at the current epoch")
	}
	// s is now pinned one epoch behind.
	if e.tryAdvance() {
		t.Fatal("advance succeeded past a participant pinned at an older epoch")
	}
	s.unpin()
	if !e.tryAdvance() {
		t.Fatal("advance failed with no pinned participants")
	}
}

// TestEBRGraceCounting walks one retire-reuse cycle by hand: an object
// retired at epoch e must not become reusable before the global epoch
// reaches e+ebrGrace.
func TestEBRGraceCounting(t *testing.T) {
	e := newEBR()
	retiredAt := e.global.Load()
	for i := 0; i < ebrGrace; i++ {
		if got := e.global.Load(); got >= retiredAt+ebrGrace {
			t.Fatalf("epoch %d already past grace after %d advances", got, i)
		}
		if !e.tryAdvance() {
			t.Fatal("advance failed with no participants")
		}
	}
	if got := e.global.Load(); got != retiredAt+ebrGrace {
		t.Fatalf("global epoch = %d after %d advances, want %d", got, ebrGrace, retiredAt+ebrGrace)
	}
}

// TestEBRSynchronizeWaitsForPinned checks that synchronize cannot return
// while a participant pinned before the call is still pinned, and returns
// promptly once it unpins.
func TestEBRSynchronizeWaitsForPinned(t *testing.T) {
	e := newEBR()
	s := e.register()
	s.pin(&e.global)
	// One advance can still succeed (s is at the current epoch); from then
	// on s is stale and pins the epoch in place, so synchronize must block.
	var done atomic.Bool
	go func() {
		e.synchronize()
		done.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if done.Load() {
		t.Fatal("synchronize returned while a participant stayed pinned")
	}
	s.unpin()
	deadline := time.After(5 * time.Second)
	for !done.Load() {
		select {
		case <-deadline:
			t.Fatal("synchronize did not return after the participant unpinned")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestEBRRegistryBoundedUnderHandleChurn lets sync.Pool drop a Ctrie's
// participant handles again and again — every collection empties the pool
// after two cycles — and checks that the slots of dropped handles are
// handed out again instead of piling up in the registry tryAdvance scans.
func TestEBRRegistryBoundedUnderHandleChurn(t *testing.T) {
	const live, rounds = 8, 40
	ct := NewCtrie[int, int](IntHasher)
	e := ct.pool.ebr
	churn := func() {
		hs := make([]*ctHandle[int, int], live)
		for i := range hs {
			hs[i] = ct.pool.get()
			hs[i].pin()
			hs[i].unpin()
		}
		for _, h := range hs {
			ct.pool.put(h)
		}
	}
	released := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.free)
	}
	for round := 0; round < rounds; round++ {
		churn()
		runtime.GC() // the pool's contents move to its victim cache
		runtime.GC() // and are dropped
		// Cleanups run on their own goroutine once the collection is done.
		for wait := 0; wait < 100 && released() == 0; wait++ {
			time.Sleep(time.Millisecond)
		}
	}
	if n := len(*e.slots.Load()); n > 3*live {
		t.Fatalf("%d registered slots after %d rounds of %d handles: dropped handles' slots are not reused", n, rounds, live)
	}
}

// TestEpochPoolRegistryBoundedUnderHandleChurn is the EpochPool edition of
// TestEBRRegistryBoundedUnderHandleChurn: handles the pool's sync.Pool drops
// must give their epoch slots back.
func TestEpochPoolRegistryBoundedUnderHandleChurn(t *testing.T) {
	const live, rounds = 8, 40
	p := NewEpochPool[int](0, nil)
	e := p.ebr
	churn := func() {
		hs := make([]*EpochHandle[int], live)
		for i := range hs {
			hs[i] = p.Get()
			hs[i].Pin()
			hs[i].Unpin()
		}
		for _, h := range hs {
			p.Put(h)
		}
	}
	released := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.free)
	}
	for round := 0; round < rounds; round++ {
		churn()
		runtime.GC()
		runtime.GC()
		for wait := 0; wait < 100 && released() == 0; wait++ {
			time.Sleep(time.Millisecond)
		}
	}
	if n := len(*e.slots.Load()); n > 3*live {
		t.Fatalf("%d registered slots after %d rounds of %d handles: dropped handles' slots are not reused", n, rounds, live)
	}
}

// TestEBRConcurrentPinUnpin stresses pin/unpin against a synchronizer; the
// invariant under test is that synchronize always terminates (participants
// that keep re-pinning pick up the new epoch and so never wedge it) while
// the epoch only moves forward. Run with -race to check the announcement
// protocol's memory ordering.
func TestEBRConcurrentPinUnpin(t *testing.T) {
	e := newEBR()
	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.register()
			for !stop.Load() {
				s.pin(&e.global)
				s.unpin()
			}
		}()
	}
	start := e.global.Load()
	for i := 0; i < 50; i++ {
		e.synchronize()
	}
	stop.Store(true)
	wg.Wait()
	if got := e.global.Load(); got < start+50*ebrGrace {
		t.Fatalf("global epoch advanced to %d, want at least %d", got, start+50*ebrGrace)
	}
}
