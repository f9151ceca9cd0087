package conc

import (
	"runtime"
	"testing"
)

// TestPooledStructuresAllocNothing: in steady state a Put/Remove/Put cycle
// on every epoch-pooled structure allocates nothing. Displaced nodes, value
// boxes and chain nodes come back through the handle's bins and freelists.
func TestPooledStructuresAllocNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	// One P, so every operation borrows the same pooled handle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const keys = 256
	type churner interface {
		Put(k, v int) (int, bool)
		Remove(k int) (int, bool)
	}
	structures := []struct {
		name string
		m    churner
	}{
		{"ctrie-versioned", NewCtrie[int, int](IntHasher)},
		{"ctrie-unversioned", NewCtrieUnversioned[int, int](IntHasher)},
		{"hashmap", NewHashMap[int, int](IntHasher)},
		{"skiplist", NewSkipListMap[int, int](intCmp)},
	}
	for _, s := range structures {
		t.Run(s.name, func(t *testing.T) {
			for k := 0; k < keys; k++ {
				s.m.Put(k, k)
			}
			i := 0
			churn := func() {
				k := i % keys
				s.m.Put(k, i)
				s.m.Remove(k)
				s.m.Put(k, i+1)
				i++
			}
			for j := 0; j < 8*keys; j++ {
				churn() // reach pool steady state
			}
			if avg := testing.AllocsPerRun(4*keys, churn); avg > 0 {
				t.Fatalf("%.3f allocations per Put/Remove/Put, want 0", avg)
			}
		})
	}
}
