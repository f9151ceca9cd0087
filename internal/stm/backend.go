package stm

import (
	"fmt"
	"slices"
	"strings"
)

// Backend is a pluggable conflict-detection engine: one point of the STM
// strategy table in Figure 1 of the Proust paper, packaged as a self-contained
// implementation of the transactional hot path. The STM core (Txn, Ref,
// Atomically) is policy-agnostic; every policy-specific decision — when write
// locks are taken, how reads are validated, what the commit protocol is —
// lives behind this interface.
//
// The interface is sealed: the hot-path methods are unexported, so backends
// are implemented inside this package and selected by name (Backends /
// WithBackend). The contract a new
// backend must satisfy is documented in DESIGN.md ("Writing a new backend"):
// in short, reads must be opaque (no transaction, even a doomed one, observes
// an inconsistent snapshot), commit must apply OnCommitLocked hooks while the
// backend's native commit-time locks are held (Theorem 5.1/5.3 replay-log
// bracketing), and touch must record a read-set entry that a conflicting
// committed write invalidates (the trailing reads of Theorem 5.3).
type Backend interface {
	// Name returns the registry name of the backend ("tl2", "ccstm",
	// "eager", "norec").
	Name() string
	// Policy returns the backend's Figure 1 classification.
	Policy() DetectionPolicy

	// begin initializes backend-owned per-transaction state (read version,
	// sequence snapshot, ...) at the start of an attempt.
	begin(tx *Txn)
	// read performs a consistent (opaque) read of r and records a read-set
	// entry. It is never called for refs already in the redo log; the
	// policy-agnostic core serves those from the write set.
	read(tx *Txn, r *baseRef) any
	// write records (lazy backends) or applies (encounter-time backends) a
	// write of box b to r.
	write(tx *Txn, r *baseRef, b *box)
	// touch forces r into the read set for commit-time validation even if
	// the transaction has already written r.
	touch(tx *Txn, r *baseRef)
	// validate re-checks the entire read set against the current memory
	// state, returning false if the transaction must abort.
	validate(tx *Txn) bool
	// commit attempts to commit the transaction, returning false (after
	// rolling back) if it must be retried. commit never panics.
	commit(tx *Txn) bool
	// abort releases backend-owned resources (encounter-time locks, commit
	// locks, visible-reader registrations, undo images) during rollback.
	abort(tx *Txn)
}

// BackendFactory describes a backend: its name, classification, a one-line
// description for listings, and a constructor producing a fresh instance for
// one STM. Backends may hold per-STM state (e.g. NOrec's global sequence
// lock), so instances are never shared between STMs.
type BackendFactory struct {
	Name   string
	Policy DetectionPolicy
	Doc    string
	New    func() Backend
}

// backends is the fixed set of backends, sorted by name. Each implements a
// distinct DetectionPolicy, so a policy names at most one backend.
var backends = []BackendFactory{
	{
		Name:   "ccstm",
		Policy: MixedEagerWWLazyRW,
		Doc:    "CCSTM-style: encounter-time write locks with undo, invisible readers validated at commit",
		New:    func() Backend { return ccstmBackend{} },
	},
	{
		Name:   "eager",
		Policy: EagerEager,
		Doc:    "visible readers: encounter-time write locks plus reader registration, all conflicts detected eagerly",
		New:    func() Backend { return eagerBackend{} },
	},
	{
		Name:   "mvcc",
		Policy: MultiVersion,
		Doc:    "multi-version TL2: bounded per-ref version chains; WithReadOnly txns read a snapshot with no validation and no aborts",
		New:    newMVCCBackend,
	},
	{
		Name:   "norec",
		Policy: NOrec,
		Doc:    "NOrec: no per-ref metadata, one global sequence lock, value-based validation",
		New:    func() Backend { return &norecBackend{} },
	},
	{
		Name:   "tl2",
		Policy: LazyLazy,
		Doc:    "TL2-style: redo log, commit-time locking in global ref order, lazy w/w and r/w detection",
		New:    func() Backend { return tl2Backend{} },
	},
}

// Backends returns every backend factory, sorted by name.
func Backends() []BackendFactory { return slices.Clone(backends) }

// BackendNames returns the sorted backend names.
func BackendNames() []string {
	out := make([]string, len(backends))
	for i, f := range backends {
		out[i] = f.Name
	}
	return out
}

// BackendByName returns the factory of the backend called name.
func BackendByName(name string) (BackendFactory, bool) {
	for _, f := range backends {
		if f.Name == name {
			return f, true
		}
	}
	return BackendFactory{}, false
}

// backendForPolicy maps a Figure 1 classification to the backend
// implementing it (the WithPolicy compatibility path).
func backendForPolicy(p DetectionPolicy) (BackendFactory, bool) {
	for _, f := range backends {
		if f.Policy == p {
			return f, true
		}
	}
	return BackendFactory{}, false
}

// WithBackend selects the conflict-detection backend by registry name. It
// panics on an unknown name, enumerating the valid ones; callers that need an
// error instead should validate with BackendByName first.
func WithBackend(name string) Option { return backendOption(name) }

type backendOption string

func (o backendOption) apply(s *STM) {
	f, ok := BackendByName(string(o))
	if !ok {
		panic(fmt.Sprintf("stm: unknown backend %q (valid backends: %s)",
			string(o), strings.Join(BackendNames(), ", ")))
	}
	s.backend = f.New()
}
