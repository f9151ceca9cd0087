package core

import (
	"sync/atomic"

	"proust/internal/stm"
)

// committedSize is a wrapper's size reified out of its abstract state — the
// paper's committedSize (Listing 2) — in the shape of its Section 3
// NNCounter: the committed count is a plain atomic beside one STM conflict
// location, so a size change publishes no STM cell.
//
//   - A size change adds to the attempt's pending delta, kept in the
//     wrapper's own per-transaction log state. The attempt's first change
//     also writes the shared token into loc and Touches it: the read+write
//     of loc a Modify of a reference would make.
//   - The commit adds the delta to n inside the commit critical section
//     (OnCommitLocked): after validation and before versions are published,
//     while the committer still holds loc's lock (or norec's sequence
//     lock). An abort drops the delta; there is nothing to invert.
//   - Size is bracketed like a base read: a leading read of loc, then n plus
//     the pending delta, then a trailing Touch of loc (Theorem 5.3). A commit
//     whose addition the load saw but the leading read missed entered its
//     critical section after that read and publishes a new version of loc
//     before it leaves, so the trailing read aborts the reader.
//
// The count is not versioned: an mvcc read-only snapshot would read the
// latest n beside an old loc, as it reads the wrapper's latest base. Only the
// baselines, which keep a versioned STM reference for their size, are served
// on read-only snapshots.
type committedSize struct {
	loc *stm.Ref[uint64]
	n   atomic.Int64
}

// sizeDelta is one attempt's pending change to a committedSize, embedded in
// the owning log's pooled per-transaction state and zeroed with it.
type sizeDelta struct {
	n int64
	// written records that this attempt has written and touched loc.
	written bool
}

// init gives c its conflict location on s; the count starts at zero.
func (c *committedSize) init(s *stm.STM) {
	c.loc = stm.NewRef(s, uint64(0))
}

// add changes the pending size by by, announcing the attempt's first change
// on loc. It reports whether this was that first change, so a log whose
// commit hook is not yet registered can register it.
func (c *committedSize) add(tx *stm.Txn, d *sizeDelta, by int64) (first bool) {
	d.n += by
	if d.written {
		return false
	}
	stm.SetSerialToken(tx, c.loc)
	c.loc.Touch(tx)
	d.written = true
	return true
}

// read returns the size tx observes: the committed count plus its own
// pending delta, between a leading and a trailing access of loc.
func (c *committedSize) read(tx *stm.Txn, pending int64) int {
	_ = c.loc.Get(tx)
	n := c.n.Load() + pending
	c.loc.Touch(tx)
	return int(n)
}

// publish applies a committing attempt's delta. Call it from an
// OnCommitLocked hook only.
func (c *committedSize) publish(d *sizeDelta) {
	if d.n != 0 {
		c.n.Add(d.n)
	}
}
