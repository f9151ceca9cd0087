package stm

// Phase-level span timing. An attempt's wall time is attributed to a small
// fixed set of phases — body compute, transactional reads, validation, lock
// acquisition, commit stamping and publication — accumulated into a
// per-descriptor array and emitted as one PhaseSample per traced attempt.
//
// The instrumentation follows the same discipline as the duration histograms
// (stats.go): it is sampled (one in histSampleEvery attempts) and gated the
// way TimestampFree gates the event clock read — a transaction pays for phase
// clocks only when the attached tracer implements PhaseTracer AND the attempt
// drew the sampling lot. With no tracer (or a phase-blind one) every bracket
// site costs a single predictable branch on a descriptor-local bool, the
// descriptor keeps its size class, and the ≤1 alloc/txn budget is untouched:
// a PhaseSample is a plain value handed to the tracer, never heap-allocated
// by this package.

// Phase identifies one slice of a transaction attempt's wall time.
type Phase uint8

const (
	// PhaseBody is the residual phase: user code running between the
	// instrumented regions (map lookups, hashing, ADT bookkeeping).
	PhaseBody Phase = iota
	// PhaseRead covers opaque transactional reads (version- or value-based),
	// excluding any nested validation time.
	PhaseRead
	// PhaseValidate covers read-set validation: clock extensions during the
	// body, commit-time validation, and norec value revalidation.
	PhaseValidate
	// PhaseLock covers write-lock acquisition: encounter-time acquire loops
	// and the tl2 commit-time locking pass, including contention-manager
	// arbitration and spin waits.
	PhaseLock
	// PhaseStamp covers the commit-stamp window: the shard-clock and epoch
	// bumps that assign the write version, and norec's sequence-lock spin.
	PhaseStamp
	// PhasePublish covers publication: applying commit-locked hooks, storing
	// values and versions and releasing write locks.
	PhasePublish

	// NumPhases is the length of per-phase arrays.
	NumPhases = 6

	// phaseOff is the sentinel phaseEnter returns when phase timing is
	// disabled for the attempt; phaseExit treats it as a no-op token.
	phaseOff Phase = 0xff
)

// phaseNames is indexed by Phase; it is the exposition vocabulary shared by
// the obs layer, the Chrome trace export and proust-report.
var phaseNames = [NumPhases]string{
	"body", "read", "validate", "lock", "stamp", "publish",
}

// String returns the phase name used in metrics and trace output.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseNames returns the phase vocabulary in Phase order.
func PhaseNames() [NumPhases]string { return phaseNames }

// PhaseSample is the per-attempt phase breakdown delivered to a PhaseTracer:
// where one sampled attempt's wall time went, phase by phase, plus enough
// identity to join it against the attempt's TraceEvent (same Serial).
type PhaseSample struct {
	// Backend is the registry name of the backend that ran the attempt.
	Backend string `json:"backend"`
	// Kind is TraceCommit or TraceAbort — how the attempt ended.
	Kind TraceKind `json:"kind"`
	// Cause is the abort cause for aborted attempts, CauseNone otherwise.
	Cause AbortCause `json:"cause"`
	// Serial is the attempt's unique serial (joins TraceEvent.Serial).
	Serial uint64 `json:"serial"`
	// Attempt is the 1-based attempt number.
	Attempt int `json:"attempt"`
	// Reads and Writes are the final read- and write-set sizes.
	Reads  int `json:"reads"`
	Writes int `json:"writes"`
	// StartNS is the attempt's start in wall nanoseconds (instance clock).
	StartNS int64 `json:"start_ns"`
	// TotalNS is the attempt's end-to-end wall time in nanoseconds.
	TotalNS int64 `json:"total_ns"`
	// PhaseNS is the per-phase attribution, indexed by Phase. The entries
	// sum to TotalNS (PhaseBody absorbs the residue); a phase's time may be
	// accumulated over several disjoint intervals of the attempt.
	PhaseNS [NumPhases]int64 `json:"phases"`
}

// PhaseTracer extends Tracer with per-attempt phase breakdowns. When the
// attached tracer implements it, the STM times the phases of sampled attempts
// (one in HistogramSampleEvery, the same lot as the duration histograms) and
// calls TracePhases once per sampled commit or abort, immediately after the
// attempt's Trace event. TracePhases runs on the transaction's goroutine and
// must be cheap; the sample is passed by value and may be retained.
type PhaseTracer interface {
	Tracer
	TracePhases(ps PhaseSample)
}

// phaseBegin arms phase accounting for the attempt: all buckets cleared,
// the attempt's clock started, the current phase set to the body residual.
// Called from beginAttempt only when the attempt is sampled and a PhaseTracer
// is attached.
func (tx *Txn) phaseBegin() {
	tx.phaseNS = [NumPhases]int64{}
	tx.phaseStart = tx.s.sinceEpoch()
	tx.phaseT = tx.phaseStart
	tx.phaseCur = PhaseBody
	tx.phaseOn = true
}

// phaseEnter switches the attempt into phase p, closing the current phase's
// open interval. It returns the previous phase as a token for phaseExit;
// bracketed regions nest (a validation inside a read charges the validation
// sub-interval to PhaseValidate and hands the rest back to PhaseRead). When
// phase timing is off it is a single branch and returns phaseOff.
func (tx *Txn) phaseEnter(p Phase) Phase {
	// The guard must stay under the inlining budget: detached (the common
	// case), every instrumented site reduces to this one predictable branch.
	if !tx.phaseOn {
		return phaseOff
	}
	return tx.phaseEnterSlow(p)
}

func (tx *Txn) phaseEnterSlow(p Phase) Phase {
	now := tx.s.sinceEpoch()
	tx.phaseNS[tx.phaseCur] += now - tx.phaseT
	prev := tx.phaseCur
	tx.phaseCur = p
	tx.phaseT = now
	return prev
}

// phaseExit closes the current phase interval and restores the phase saved
// by the matching phaseEnter. A phaseOff token is a no-op, as is any exit
// after the attempt's sample was already emitted (a rollback inside a
// bracketed region emits the sample first; the bracket's own exit then must
// not resurrect accounting).
func (tx *Txn) phaseExit(prev Phase) {
	if prev == phaseOff || !tx.phaseOn {
		return
	}
	tx.phaseExitSlow(prev)
}

func (tx *Txn) phaseExitSlow(prev Phase) {
	now := tx.s.sinceEpoch()
	tx.phaseNS[tx.phaseCur] += now - tx.phaseT
	tx.phaseCur = prev
	tx.phaseT = now
}

// emitPhases closes the attempt's accounting and delivers the PhaseSample.
// A bracketed region that unwinds by panic (conflict inside a read, a lost
// arbitration inside acquire) never runs its phaseExit; the open interval is
// simply charged to the phase that was current when the attempt died, which
// is the truthful attribution. Emission disarms phase timing until the next
// phaseBegin, so late phaseExit calls on the unwind path are inert.
func (tx *Txn) emitPhases(kind TraceKind, cause AbortCause) {
	if !tx.phaseOn {
		return
	}
	now := tx.s.sinceEpoch()
	tx.phaseNS[tx.phaseCur] += now - tx.phaseT
	tx.phaseOn = false
	tx.s.phaser.TracePhases(PhaseSample{
		Backend: tx.s.backend.Name(),
		Kind:    kind,
		Cause:   cause,
		Serial:  tx.id,
		Attempt: int(tx.attempt),
		Reads:   len(tx.reads),
		Writes:  tx.wset.len(),
		StartNS: tx.s.epochNS + tx.phaseStart,
		TotalNS: now - tx.phaseStart,
		PhaseNS: tx.phaseNS,
	})
}
