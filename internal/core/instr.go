package core

// Sink receives ADT-level observability events from instrumented Proustian
// wrappers. Implementations must be cheap and safe for arbitrary concurrency:
// OpOutcome runs inside transaction commit/abort processing, ReplayDepth
// inside the commit critical section. internal/obs provides a Sink over its
// metrics registry; a nil sink (the default) keeps every hot path at one
// predictable branch.
//
// This is the middle layer of the paper's conflict mapping made observable:
// the STM's Stats/Tracer count raw lock- and validation-level conflicts,
// while the Sink attributes commits and aborts to the ADT operations that
// issued the conflicting conflict-abstraction accesses.
type Sink interface {
	// OpOutcome reports that one transaction attempt on structure applied
	// the named ADT operation n times and then committed (or aborted).
	// Aborted attempts of transactions that later commit are reported per
	// attempt, mirroring stm.Stats abort accounting.
	OpOutcome(structure, op string, committed bool, n uint64)
	// ReplayDepth reports the log depth (queued operations) of a committing
	// lazy transaction from inside the commit critical section: what a memo
	// log replays onto the base, or what a snapshot log's adopted shadow
	// carries.
	ReplayDepth(structure string, depth int)
}
