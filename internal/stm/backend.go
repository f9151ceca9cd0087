package stm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Backend is a pluggable conflict-detection engine: one point of the STM
// strategy table in Figure 1 of the Proust paper, packaged as a self-contained
// implementation of the transactional hot path. The STM core (Txn, Ref,
// Atomically) is policy-agnostic; every policy-specific decision — when write
// locks are taken, how reads are validated, what the commit protocol is —
// lives behind this interface.
//
// The interface is sealed: the hot-path methods are unexported, so backends
// are implemented inside this package and selected by name through the
// registry (RegisterBackend / Backends / WithBackend). The contract a new
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

// BackendFactory describes a registered backend: its name, classification,
// a one-line description for listings, and a constructor producing a fresh
// instance for one STM. Backends may hold per-STM state (e.g. NOrec's global
// sequence lock), so instances are never shared between STMs.
type BackendFactory struct {
	Name   string
	Policy DetectionPolicy
	Doc    string
	New    func() Backend
}

var (
	backendMu       sync.RWMutex
	backendRegistry = make(map[string]BackendFactory)
	backendOrder    []string
)

// RegisterBackend adds a backend factory to the registry. It panics on a
// duplicate or empty name; registration normally happens in package init.
func RegisterBackend(f BackendFactory) {
	if f.Name == "" || f.New == nil {
		panic("stm: RegisterBackend requires a name and a constructor")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendRegistry[f.Name]; dup {
		panic(fmt.Sprintf("stm: backend %q registered twice", f.Name))
	}
	backendRegistry[f.Name] = f
	backendOrder = append(backendOrder, f.Name)
}

// Backends returns all registered backend factories sorted by name.
// Registration order is a package-init artifact (file-name order of the init
// functions), so enumeration-driven harnesses — -list-backends, the bench
// matrix, registry-sweeping tests — would otherwise reorder whenever a file
// is renamed or a backend added; sorting makes their output deterministic.
// (Policy resolution deliberately stays on registration order; see
// backendForPolicy.)
func Backends() []BackendFactory {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backendOrder))
	names = append(names, backendOrder...)
	sort.Strings(names)
	out := make([]BackendFactory, 0, len(names))
	for _, name := range names {
		out = append(out, backendRegistry[name])
	}
	return out
}

// BackendNames returns the sorted names of all registered backends.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := make([]string, 0, len(backendOrder))
	out = append(out, backendOrder...)
	sort.Strings(out)
	return out
}

// BackendByName returns the factory registered under name.
func BackendByName(name string) (BackendFactory, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	f, ok := backendRegistry[name]
	return f, ok
}

// backendForPolicy maps a Figure 1 classification to the registered backend
// implementing it (the WithPolicy compatibility path). This walks
// registration order, not sorted order: each built-in policy has exactly one
// implementation, and keeping the original order means
// a hypothetical second implementation cannot silently steal a policy from
// the canonical backend by sorting earlier.
func backendForPolicy(p DetectionPolicy) (BackendFactory, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	for _, name := range backendOrder {
		if f := backendRegistry[name]; f.Policy == p {
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
