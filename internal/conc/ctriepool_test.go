package conc

import (
	"fmt"
	"math/rand"
	"testing"
)

// poisonCtrieConfigs is the pool-poisoning matrix: every Ctrie variant that
// draws nodes from the epoch pools.
var poisonCtrieConfigs = []struct {
	name string
	new  func(Hasher[int]) *Ctrie[int, int]
}{
	{"versioned", NewCtrie[int, int]},
	{"unversioned", NewCtrieUnversioned[int, int]},
}

// TestCtriePoolRecycledBranchesFresh poisons branch boxes with junk before
// retiring them and then checks, in the style of the STM descriptor pool
// test, that a box handed back out by the allocator is indistinguishable
// from a freshly allocated one.
func TestCtriePoolRecycledBranchesFresh(t *testing.T) {
	pool := newCtPool[int, int]()
	h := pool.get()

	// Poison a cohort and retire it through a full grace period.
	poisoned := make(map[*ctBranch[int, int]]bool)
	for i := 0; i < 64; i++ {
		b := h.newSNode(0xdeadbeef, 123456+i, -1-i, ctGen{line: 1, seq: 1})
		b.in = &ctINode[int, int]{} // junk that must never survive recycling
		poisoned[b] = true
		h.bin().addBranch(b)
	}
	// Age the bin out: each advance re-keys bin(); after ebrGrace+1 epochs
	// the cohort's residue class is revisited and drained.
	for i := 0; i < 3*(ebrGrace+1); i++ {
		if !pool.ebr.tryAdvance() {
			t.Fatal("tryAdvance failed with no pinned participants")
		}
		h.pin()
		h.unpin()
	}
	h.drainExpired()

	recycled := 0
	for i := 0; i < 128; i++ {
		b := h.newBranch()
		if poisoned[b] {
			recycled++
			if b.in != nil || b.gen != (ctGen{}) || b.hc != 0 || b.k != 0 || b.v != 0 {
				t.Fatalf("recycled branch box not fresh: %+v", b)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no poisoned branch box came back through the allocator; the test exercised nothing")
	}
}

// TestCtriePoolRecycledMainsFresh does the same for main nodes, including
// the GCAS prev pointer, which must never leak into a new main.
func TestCtriePoolRecycledMainsFresh(t *testing.T) {
	pool := newCtPool[int, int]()
	h := pool.get()

	junkMain := &ctMain[int, int]{}
	poisoned := make(map[*ctMain[int, int]]bool)
	for i := 0; i < 64; i++ {
		m := h.newMain(ctGen{})
		m.cn = &ctCNode[int, int]{}
		m.tn = &ctBranch[int, int]{}
		m.ln = &ctLNode[int, int]{}
		m.failed = junkMain
		m.prev.Store(junkMain)
		poisoned[m] = true
		h.bin().addMain(m)
	}
	for i := 0; i < 3*(ebrGrace+1); i++ {
		pool.ebr.tryAdvance()
		h.pin()
		h.unpin()
	}
	h.drainExpired()

	recycled := 0
	for i := 0; i < 128; i++ {
		m := h.newMain(ctGen{})
		if poisoned[m] {
			recycled++
			if m.cn != nil || m.tn != nil || m.ln != nil || m.failed != nil || m.prev.Load() != nil {
				t.Fatalf("recycled main not fresh: %+v", m)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no poisoned main came back through the allocator")
	}
}

// TestCtrieChurnAgainstOracle hammers each pooled Ctrie variant with enough
// insert/update/remove churn to cycle nodes through retirement and reuse
// many times over, checking every operation's result against a plain map
// oracle — the end-to-end "recycled node behaves like a fresh node" check.
func TestCtrieChurnAgainstOracle(t *testing.T) {
	for _, tc := range poisonCtrieConfigs {
		t.Run(tc.name, func(t *testing.T) {
			ct := tc.new(IntHasher)
			oracle := make(map[int]int)
			rng := rand.New(rand.NewSource(8))
			const keyRange = 128 // small: forces contract/re-split cycles
			steps := 200000
			if raceEnabled {
				steps = 25000
			}
			for step := 0; step < steps; step++ {
				k := rng.Intn(keyRange)
				switch rng.Intn(4) {
				case 0, 1:
					v := step
					old, had := ct.Put(k, v)
					wantOld, wantHad := oracle[k], false
					if _, ok := oracle[k]; ok {
						wantHad = true
					}
					if had != wantHad || (had && old != wantOld) {
						t.Fatalf("step %d: Put(%d) = (%d,%v), want (%d,%v)", step, k, old, had, wantOld, wantHad)
					}
					oracle[k] = v
				case 2:
					old, had := ct.Remove(k)
					wantOld, wantHad := oracle[k], false
					if _, ok := oracle[k]; ok {
						wantHad = true
					}
					if had != wantHad || (had && old != wantOld) {
						t.Fatalf("step %d: Remove(%d) = (%d,%v), want (%d,%v)", step, k, old, had, wantOld, wantHad)
					}
					delete(oracle, k)
				case 3:
					v, ok := ct.Get(k)
					wantV, wantOk := oracle[k], false
					if _, present := oracle[k]; present {
						wantOk = true
					}
					if ok != wantOk || (ok && v != wantV) {
						t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, k, v, ok, wantV, wantOk)
					}
				}
			}
			got := make(map[int]int)
			ct.Range(func(k, v int) bool {
				if prev, dup := got[k]; dup {
					t.Fatalf("Range yielded key %d twice (values %d, %d)", k, prev, v)
				}
				got[k] = v
				return true
			})
			if len(got) != len(oracle) {
				t.Fatalf("final Range saw %d keys, oracle has %d", len(got), len(oracle))
			}
			for k, v := range oracle {
				if got[k] != v {
					t.Fatalf("final Range: key %d = %d, want %d", k, got[k], v)
				}
			}
		})
	}
}

// TestCtrieRecycledStateAcrossVariants runs the same deterministic script
// against a pooled trie and a map oracle twice — once on a cold structure
// and once on a structure whose pools have already been heavily cycled — and
// requires identical observable behavior, pinning down any state that could
// bleed through a recycled node.
func TestCtrieRecycledStateAcrossVariants(t *testing.T) {
	script := func(ct *Ctrie[int, int]) string {
		out := ""
		for i := 0; i < 500; i++ {
			k := (i * 7) % 64
			switch i % 3 {
			case 0:
				old, had := ct.Put(k, i)
				out += fmt.Sprintf("p%d:%d,%v;", k, old, had)
			case 1:
				v, ok := ct.Get(k)
				out += fmt.Sprintf("g%d:%d,%v;", k, v, ok)
			case 2:
				old, had := ct.Remove(k)
				out += fmt.Sprintf("r%d:%d,%v;", k, old, had)
			}
		}
		return out
	}
	for _, tc := range poisonCtrieConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cold := tc.new(IntHasher)
			want := script(cold)

			warm := tc.new(IntHasher)
			rng := rand.New(rand.NewSource(99))
			warmup := 100000
			if raceEnabled {
				warmup = 20000
			}
			for i := 0; i < warmup; i++ { // cycle the pools hard
				k := rng.Intn(64)
				if rng.Intn(2) == 0 {
					warm.Put(k, i)
				} else {
					warm.Remove(k)
				}
			}
			for k := 0; k < 64; k++ {
				warm.Remove(k)
			}
			if got := script(warm); got != want {
				t.Fatal("script diverged on a pool-warmed trie: recycled node state leaked")
			}
		})
	}
}
