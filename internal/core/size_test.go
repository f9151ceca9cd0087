package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proust/internal/stm"
)

// TestSizeOpaqueUnderConcurrentChurn: Size(tx) is opaque. Writers insert and
// remove keys of a small range while readers count the keys they see and
// compare that count with Size(tx) inside the same transaction, on every
// attempt — an attempt that later aborts must not have seen a mismatch
// either. It runs one eager, one lazy-snapshot and one memo map on every
// backend at both LAPs (the eager map's optimistic rows only where
// CheckCombo admits them; elsewhere its keys are not opaque to begin with).
//
// Three reader shapes catch the ways the committed count could leak:
//
//   - Size first, then the keys: a count published after the commit's
//     versions (OnCommit instead of OnCommitLocked) is still old when a
//     reader has already read the new version of the size location and
//     then sees the commit's keys. Writers yield in an OnCommit hook of
//     their own to widen that window.
//   - Keys first, then Size: a commit that lands between Size's leading
//     read and its load of the count is invisible to the leading read;
//     only the trailing read catches it.
//   - Keys, then a size change of its own, a yield, and Size: the leading
//     read of a location the reader has written is served from its redo
//     log, so a commit during the yield is seen by the trailing read alone.
//
// Under the pessimistic LAP only the keys-first shape is asserted: Size is
// guarded by its STM location, not by an abstract lock, so a reader must
// hold its key locks before it reads Size to exclude a writer that changes
// both in between (and a reader that upgrades a key lock would deadlock
// with the other reader).
func TestSizeOpaqueUnderConcurrentChurn(t *testing.T) {
	const (
		keys     = 8
		writers  = 2
		readers  = 2
		duration = 40 * time.Millisecond
	)
	var variants []mapVariant
	for _, v := range mapVariants() {
		if v.name != "lazy-memo-combining" {
			variants = append(variants, v)
		}
	}
	for _, v := range variants {
		for _, p := range opaquePoints(v.strat) {
			v, p := v, p
			t.Run(fmt.Sprintf("%s/%s", v.name, p), func(t *testing.T) {
				s := stm.New(stm.WithPolicy(p.policy))
				m := v.build(s, newIntLAP(s, p))
				var stop atomic.Bool
				var commits, checks, mismatches atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; !stop.Load(); i++ {
							a, b := rng.Intn(keys), rng.Intn(keys)
							if err := s.Atomically(func(tx *stm.Txn) error {
								tx.OnCommit(runtime.Gosched)
								for _, k := range [2]int{a, b} {
									if m.Contains(tx, k) {
										m.Remove(tx, k)
									} else {
										m.Put(tx, k, i)
									}
								}
								return nil
							}); err != nil {
								t.Errorf("writer: %v", err)
								return
							}
							commits.Add(1)
						}
					}(int64(w + 1))
				}
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						var present [keys]bool
						countKeys := func(tx *stm.Txn) int {
							n := 0
							for k := 0; k < keys; k++ {
								if present[k] = m.Contains(tx, k); present[k] {
									n++
								}
							}
							return n
						}
						shapes := []string{"keys first"}
						if p.optimistic {
							shapes = []string{"size first", "keys first", "own change"}
						}
						for i := 0; !stop.Load(); i++ {
							shape := shapes[(i+r)%len(shapes)]
							if err := s.Atomically(func(tx *stm.Txn) error {
								var size, seen int
								switch shape {
								case "size first":
									size = m.Size(tx)
									seen = countKeys(tx)
								case "keys first":
									seen = countKeys(tx)
									size = m.Size(tx)
								default:
									seen = countKeys(tx)
									if k := i % keys; present[k] {
										m.Remove(tx, k)
										seen--
									} else {
										m.Put(tx, k, i)
										seen++
									}
									runtime.Gosched()
									size = m.Size(tx)
								}
								checks.Add(1)
								if size != seen {
									mismatches.Add(1)
									t.Errorf("attempt %d (%s): Size = %d, keys present = %d",
										tx.Attempt(), shape, size, seen)
								}
								return nil
							}); err != nil {
								t.Errorf("reader: %v", err)
								return
							}
							if mismatches.Load() > 3 {
								return
							}
							if !p.optimistic {
								// A reader holds every key's read lock until it
								// commits; back-to-back readers would starve the
								// writers.
								time.Sleep(50 * time.Microsecond)
							}
						}
					}(r)
				}
				time.Sleep(duration)
				stop.Store(true)
				wg.Wait()
				if err := s.Atomically(func(tx *stm.Txn) error {
					n := 0
					for k := 0; k < keys; k++ {
						if m.Contains(tx, k) {
							n++
						}
					}
					if size := m.Size(tx); size != n {
						return fmt.Errorf("quiescent Size = %d, keys present = %d", size, n)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d writer commits, %d reader checks", commits.Load(), checks.Load())
			})
		}
	}
}
