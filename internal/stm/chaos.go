package stm

import "time"

// Fault injection: a chaos Backend wrapper for robustness testing.
//
// WithChaos composes the wrapper over whichever backend the other options
// select; the wrapped instance reports its name as "chaos-<inner>". It
// injects three fault classes with a seeded, stateless RNG:
//
//   - spurious aborts: a fraction of reads unwinds with CauseChaos, as if a
//     conflict had been detected;
//   - delayed commits: a fraction of commits sleeps before entering the
//     inner commit protocol, stretching the conflict window;
//   - doomed transactions: a fraction of transactions (keyed by birth serial,
//     so every optimistic attempt of an afflicted transaction fails) never
//     commits optimistically. Only escalation (WithEscalation) or
//     abandonment (WithMaxAttempts) terminates such a transaction — this is
//     the fault class the chaos soak test uses to prove escalation bounds
//     retry counts.
//
// Fault draws are pure functions of (seed, serial, salt): a fixed seed yields
// a reproducible fault schedule regardless of scheduling, and the wrapper
// adds no shared mutable state to the hot path. Serial (escalated)
// transactions are exempt from all injection — irrevocability means no
// spurious aborts — which is what lets escalation rescue doomed transactions.
type ChaosConfig struct {
	// Seed keys the fault schedule. Two runs with the same seed and the same
	// transaction serials draw the same faults.
	Seed uint64
	// AbortEvery injects a spurious conflict abort on roughly 1 in
	// AbortEvery transactional reads. 0 disables spurious aborts.
	AbortEvery uint64
	// DelayEvery delays roughly 1 in DelayEvery commits by CommitDelay
	// before the inner commit protocol runs. 0 disables commit delays.
	DelayEvery uint64
	// CommitDelay is the sleep injected by DelayEvery draws.
	CommitDelay time.Duration
	// DoomEvery dooms roughly 1 in DoomEvery transactions (keyed by birth
	// serial): every optimistic commit of a doomed transaction fails with
	// CauseChaos. 0 disables dooming. Non-zero DoomEvery requires
	// WithEscalation or WithMaxAttempts to terminate.
	DoomEvery uint64
}

// DefaultChaosConfig is a frequent-but-survivable fault mix: aborts and
// delays, no dooming (dooming without escalation or a max-attempts bound
// would retry forever, which enumeration-driven harnesses cannot tolerate).
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:        1,
		AbortEvery:  64,
		DelayEvery:  64,
		CommitDelay: 10 * time.Microsecond,
		DoomEvery:   0,
	}
}

type chaosOption ChaosConfig

func (o chaosOption) apply(s *STM) {
	cfg := ChaosConfig(o)
	s.chaosCfg = &cfg
}

// WithChaos wraps the instance's backend (whichever other options select) in
// the fault-injection chaos wrapper. Composition happens after all options
// apply, so WithChaos(cfg) combines freely with WithBackend/WithPolicy.
func WithChaos(cfg ChaosConfig) Option { return chaosOption(cfg) }

// Fault-class salts, mixed into the draw so the classes are independent.
const (
	chaosSaltAbort = 0x9b97f4a5
	chaosSaltDelay = 0x4f6cdd1d
	chaosSaltDoom  = 0x7f4a7c15
)

type chaosBackend struct {
	inner Backend
	cfg   ChaosConfig
}

func newChaosBackend(inner Backend, cfg ChaosConfig) Backend {
	return &chaosBackend{inner: inner, cfg: cfg}
}

func (c *chaosBackend) Name() string            { return "chaos-" + c.inner.Name() }
func (c *chaosBackend) Policy() DetectionPolicy { return c.inner.Policy() }

// hit draws one stateless fault decision: a splitmix64-style finalizer over
// (seed, x, salt), hitting roughly once per `every` draws.
func (c *chaosBackend) hit(x, salt, every uint64) bool {
	if every == 0 {
		return false
	}
	z := c.cfg.Seed ^ x ^ salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%every == 0
}

func (c *chaosBackend) begin(tx *Txn) { c.inner.begin(tx) }

func (c *chaosBackend) read(tx *Txn, r *baseRef) any {
	// Key the abort draw by (attempt serial, read-set position) so distinct
	// reads of one attempt draw independently.
	// Read-only (WithReadOnly) transactions are exempt like serial ones: under
	// the mvcc backend they have no validation or commit protocol to inject
	// faults into, and their zero-abort guarantee is part of the contract.
	if !tx.serialMode && !tx.readOnly && c.hit(tx.id+uint64(len(tx.reads))<<40, chaosSaltAbort, c.cfg.AbortEvery) {
		tx.conflict(CauseChaos)
	}
	return c.inner.read(tx, r)
}

func (c *chaosBackend) write(tx *Txn, r *baseRef, b *box) { c.inner.write(tx, r, b) }
func (c *chaosBackend) touch(tx *Txn, r *baseRef)         { c.inner.touch(tx, r) }
func (c *chaosBackend) validate(tx *Txn) bool             { return c.inner.validate(tx) }

func (c *chaosBackend) commit(tx *Txn) bool {
	if !tx.serialMode && !tx.readOnly {
		// Doom is keyed by birth serial: the same transaction fails on every
		// optimistic attempt, so only escalation or abandonment ends it.
		if c.hit(tx.birth.Load(), chaosSaltDoom, c.cfg.DoomEvery) {
			tx.rollback(CauseChaos)
			return false
		}
		if c.hit(tx.id, chaosSaltDelay, c.cfg.DelayEvery) && c.cfg.CommitDelay > 0 {
			// Delay before the inner protocol locks anything: the conflict
			// window stretches without inflating lock-hold times.
			time.Sleep(c.cfg.CommitDelay)
		}
	}
	return c.inner.commit(tx)
}

func (c *chaosBackend) abort(tx *Txn) { c.inner.abort(tx) }
