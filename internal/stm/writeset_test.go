package stm

import (
	"fmt"
	"testing"
)

// wsTestRefs builds n distinct baseRefs with ascending ids (no STM needed:
// the write set only touches identity and id).
func wsTestRefs(n int) []*baseRef {
	refs := make([]*baseRef, n)
	for i := range refs {
		refs[i] = &baseRef{id: uint64(i + 1)}
	}
	return refs
}

// wsBox boxes a test value for the write set, which carries boxes.
func wsBox(v int) *box { return &box{v: v} }

func TestWriteSetPutGetUpdate(t *testing.T) {
	// Cross the linear-scan threshold to exercise both lookup regimes.
	for _, n := range []int{1, wsLinearScan, wsLinearScan + 1, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			refs := wsTestRefs(n)
			var ws writeSet
			for i, r := range refs {
				if !ws.put(r, wsBox(i)) {
					t.Fatalf("put(%d) reported existing entry", i)
				}
			}
			if ws.len() != n {
				t.Fatalf("len = %d, want %d", ws.len(), n)
			}
			for i, r := range refs {
				v := ws.get(r)
				if v == nil || v.v.(int) != i {
					t.Fatalf("get(%d) = %v; want a box holding %d", i, v, i)
				}
			}
			// Update in place: no new entries, values replaced.
			for i, r := range refs {
				if ws.put(r, wsBox(i*10)) {
					t.Fatalf("put update(%d) reported new entry", i)
				}
			}
			if ws.len() != n {
				t.Fatalf("len after update = %d, want %d", ws.len(), n)
			}
			for i, r := range refs {
				if v := ws.get(r); v.v.(int) != i*10 {
					t.Fatalf("get after update(%d) = %v, want %d", i, v, i*10)
				}
			}
			// Misses.
			if ws.get(&baseRef{id: 1 << 40}) != nil {
				t.Fatal("get of unwritten ref reported a hit")
			}
		})
	}
}

func TestWriteSetInsertionOrder(t *testing.T) {
	refs := wsTestRefs(64)
	var ws writeSet
	// Insert in a scrambled order; entries must keep it.
	perm := make([]*baseRef, 0, len(refs))
	for i := range refs {
		perm = append(perm, refs[(i*37)%len(refs)])
	}
	for i, r := range perm {
		ws.put(r, wsBox(i))
	}
	for i := range ws.entries {
		if ws.entries[i].r != perm[i] {
			t.Fatalf("entry %d out of insertion order", i)
		}
	}
}

func TestWriteSetResetAndReuse(t *testing.T) {
	refs := wsTestRefs(100)
	var ws writeSet
	for round := 0; round < 5; round++ {
		// Alternate big (indexed) and small (linear) rounds to catch stale
		// probe-table entries surviving a reset.
		n := len(refs)
		if round%2 == 1 {
			n = 3
		}
		for i := 0; i < n; i++ {
			ws.put(refs[i], wsBox(round*1000+i))
		}
		if ws.len() != n {
			t.Fatalf("round %d: len = %d, want %d", round, ws.len(), n)
		}
		for i := 0; i < n; i++ {
			if v := ws.get(refs[i]); v == nil || v.v.(int) != round*1000+i {
				t.Fatalf("round %d: get(%d) = %v", round, i, v)
			}
		}
		// Refs not written this round must miss, even if written last round.
		for i := n; i < len(refs); i++ {
			if ws.get(refs[i]) != nil {
				t.Fatalf("round %d: stale hit for ref %d", round, i)
			}
		}
		ws.reset()
		if ws.len() != 0 {
			t.Fatalf("round %d: len after reset = %d", round, ws.len())
		}
	}
}

// TestWriteSetResetLeavesSpareCapacityZero pins the pooling invariant on the
// redo log: whatever earlier attempts wrote, after reset the entry array and
// the probe table are all-zero through their capacity — reset itself only
// walks what the finished attempt used.
func TestWriteSetResetLeavesSpareCapacityZero(t *testing.T) {
	refs := wsTestRefs(200)
	var ws writeSet
	// A long attempt (probe table built and grown), then shorter ones: linear
	// only, and just past the linear-scan bound (table rebuilt at its
	// smallest size inside the retained array).
	for _, n := range []int{200, 3, wsLinearScan + 1, 1, 40} {
		for i := 0; i < n; i++ {
			ws.put(refs[i], wsBox(i))
		}
		for i := 0; i < n; i++ {
			if v := ws.get(refs[i]); v == nil || v.v.(int) != i {
				t.Fatalf("n=%d: get(%d) = %v", n, i, v)
			}
		}
		ws.reset()
		if ws.len() != 0 {
			t.Fatalf("n=%d: len after reset = %d", n, ws.len())
		}
		for i, e := range ws.entries[:cap(ws.entries)] {
			if e.r != nil || e.val != nil {
				t.Fatalf("n=%d: reset left entry %d of %d pinned", n, i, cap(ws.entries))
			}
		}
		for i, slot := range ws.idx[:cap(ws.idx)] {
			if slot != 0 {
				t.Fatalf("n=%d: reset left probe slot %d of %d occupied", n, i, cap(ws.idx))
			}
		}
	}
	if cap(ws.entries) < 200 || cap(ws.idx) < 4*200 {
		t.Fatalf("reset dropped warm arrays: cap(entries)=%d cap(idx)=%d", cap(ws.entries), cap(ws.idx))
	}
}
