package stm

// The transaction redo log. Proust's pitch is ADT-level concurrency without
// giving up the raw speed of the underlying structures, so the write set —
// consulted on every transactional read (read-after-write) and walked by
// every commit — must not cost a Go-map lookup per access or a heap
// allocation per write. writeSet stores entries inline in an
// insertion-ordered slice: small transactions (the common case across every
// Figure-4 workload) are served by a linear scan over at most wsLinearScan
// entries, which beats a map lookup on both latency and allocation; larger
// transactions additionally maintain an open-addressed probe table of entry
// indices. Both arrays are reusable, so a pooled descriptor appends into
// warm backing storage and the steady-state write path allocates nothing
// (the TL2 / per-thread-log discipline of Dice, Shalev & Shavit, DISC 2006).

// wsLinearScan is the write-set size up to which lookups scan the entry
// slice directly and the probe table is not maintained.
const wsLinearScan = 8

// writeEntry is one redo-log entry, stored inline (by value) in the write
// set — no per-write heap allocation.
type writeEntry struct {
	r   *baseRef
	val any
}

// writeSet is the reusable transaction redo log. Entries keep insertion
// order (commit publication and Proust replay bracketing walk them in
// order); the probe table, when active, maps reference identity to an entry
// index so large transactions keep O(1) read-after-write.
type writeSet struct {
	entries []writeEntry
	// idx is the open-addressed probe table: idx[slot] holds entryIndex+1,
	// 0 marks an empty slot (so clear() empties the table). len(idx) is a
	// power of two, kept at most half full.
	idx []uint32
}

// wsHash mixes a reference's unique id into a probe-table hash. Ids are
// sequential, so a multiplicative mix spreads neighboring ids across slots.
func wsHash(r *baseRef) uint64 {
	h := r.id * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// len returns the number of distinct references written.
func (ws *writeSet) len() int { return len(ws.entries) }

// shardMask returns the bitmask of timebase shards covered by the redo log.
// The lazy backends (tl2, mvcc) use it at commit to decide between the
// single-shard clock bump and the epoch-fenced cross-shard path (see Txn.stampWrites).
func (ws *writeSet) shardMask() uint64 {
	var m uint64
	for i := range ws.entries {
		m |= 1 << ws.entries[i].r.shard
	}
	return m
}

// find returns the entry index of r, or -1 if r has not been written.
func (ws *writeSet) find(r *baseRef) int {
	if len(ws.entries) <= wsLinearScan {
		for i := range ws.entries {
			if ws.entries[i].r == r {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(ws.idx) - 1)
	for slot := wsHash(r) & mask; ; slot = (slot + 1) & mask {
		ei := ws.idx[slot]
		if ei == 0 {
			return -1
		}
		if ws.entries[ei-1].r == r {
			return int(ei - 1)
		}
	}
}

// get returns the buffered value for r, if any.
func (ws *writeSet) get(r *baseRef) (any, bool) {
	if i := ws.find(r); i >= 0 {
		return ws.entries[i].val, true
	}
	return nil, false
}

// put records a write of v to r, updating in place when r is already in the
// set. It reports whether the entry is new.
func (ws *writeSet) put(r *baseRef, v any) bool {
	if i := ws.find(r); i >= 0 {
		ws.entries[i].val = v
		return false
	}
	ws.entries = append(ws.entries, writeEntry{r: r, val: v})
	if n := len(ws.entries); n > wsLinearScan {
		if n == wsLinearScan+1 || 2*n > len(ws.idx) {
			// First crossing this attempt (entries 0..wsLinearScan-1 are not
			// in the table yet — even a retained table holds none of them),
			// or the table passed half load: rebuild over all entries.
			ws.reindex()
		} else {
			ws.insertIdx(uint32(n - 1))
		}
	}
	return true
}

// reindex (re)builds the probe table over all current entries: on first
// crossing wsLinearScan, and whenever the table passes half load. The table
// is a prefix of its retained array sized for the current attempt — so
// emptying it costs what this attempt used, not what the largest one did —
// and a retained array that is big enough is resliced in place (its spare
// capacity is all-zero, see truncate), so a pooled descriptor's steady state
// stays allocation-free for large write sets too.
func (ws *writeSet) reindex() {
	size := 32
	for size < 4*len(ws.entries) {
		size <<= 1
	}
	clear(ws.idx)
	if size <= cap(ws.idx) {
		ws.idx = ws.idx[:size]
	} else {
		ws.idx = make([]uint32, size)
	}
	for i := range ws.entries {
		ws.insertIdx(uint32(i))
	}
}

// insertIdx adds entry ei to the probe table (which must have a free slot).
func (ws *writeSet) insertIdx(ei uint32) {
	mask := uint64(len(ws.idx) - 1)
	slot := wsHash(ws.entries[ei].r) & mask
	for ws.idx[slot] != 0 {
		slot = (slot + 1) & mask
	}
	ws.idx[slot] = ei + 1
}

// reset empties the write set for the next attempt or for pool residency,
// keeping capacity and dropping every held reference. The probe table is
// only touched when the finished attempt actually used it.
func (ws *writeSet) reset() {
	if len(ws.entries) > wsLinearScan {
		truncate(&ws.idx)
	}
	truncate(&ws.entries)
}
