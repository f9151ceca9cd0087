package stm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// atomicTracer tallies lifecycle events with atomics; safe under -race.
type atomicTracer struct {
	commits atomic.Uint64
	aborts  [8]atomic.Uint64 // indexed by AbortCause
	badTS   atomic.Uint64
	noneAb  atomic.Uint64
}

func (ct *atomicTracer) Trace(ev TraceEvent) {
	switch ev.Kind {
	case TraceCommit:
		ct.commits.Add(1)
	case TraceAbort:
		if ev.Cause == CauseNone {
			ct.noneAb.Add(1)
		}
		if i := int(ev.Cause); i >= 0 && i < len(ct.aborts) {
			ct.aborts[i].Add(1)
		}
	}
	if ev.TS == 0 {
		ct.badTS.Add(1)
	}
}

// TestTracerConcurrentAccounting drives every registered backend with a
// contended workload and asserts the tracer neither loses nor duplicates
// commit events and attributes abort causes exactly as Stats does.
func TestTracerConcurrentAccounting(t *testing.T) {
	const (
		goroutines = 8
		txnsPerG   = 200
		refsN      = 8
	)
	for _, name := range BackendNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			var ticks atomic.Int64
			tracer := &atomicTracer{}
			s := New(WithBackend(name), WithTracer(tracer),
				WithClock(func() int64 { return ticks.Add(1) }))
			refs := make([]*Ref[int], refsN)
			for i := range refs {
				refs[i] = NewRef(s, 0)
			}
			var succeeded atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < txnsPerG; i++ {
						err := s.Atomically(func(tx *Txn) error {
							a := refs[(id+i)%refsN]
							b := refs[(id*7+i*3)%refsN]
							a.Set(tx, a.Get(tx)+1)
							b.Set(tx, b.Get(tx)+1)
							return nil
						})
						if err == nil {
							succeeded.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()

			st := s.Stats()
			if got, want := tracer.commits.Load(), succeeded.Load(); got != want {
				t.Errorf("tracer commits = %d, successful transactions = %d", got, want)
			}
			if got, want := tracer.commits.Load(), st.Commits; got != want {
				t.Errorf("tracer commits = %d, stats commits = %d", got, want)
			}
			var abortEvents uint64
			for i := range tracer.aborts {
				abortEvents += tracer.aborts[i].Load()
			}
			if want := st.Aborts + st.MaxAttemptsAborts; abortEvents != want {
				t.Errorf("tracer abort events = %d, stats aborts = %d", abortEvents, want)
			}
			if n := tracer.noneAb.Load(); n != 0 {
				t.Errorf("%d abort events carried CauseNone", n)
			}
			// Per-cause attribution must match the Stats breakdown exactly.
			byCause := map[AbortCause]uint64{
				CauseLockConflict: st.ConflictAborts,
				CauseValidation:   st.ValidationAborts,
				CauseDoomed:       st.DoomedAborts,
				CauseUser:         st.UserAborts,
				CauseMaxAttempts:  st.MaxAttemptsAborts,
			}
			for cause, want := range byCause {
				if got := tracer.aborts[int(cause)].Load(); got != want {
					t.Errorf("cause %v: tracer %d, stats %d", cause, got, want)
				}
			}
			if n := tracer.badTS.Load(); n != 0 {
				t.Errorf("%d events carried a zero timestamp from the injected clock", n)
			}
			// The shared counters must reflect exactly the committed
			// increments (two per successful transaction).
			var sum int
			_ = s.Atomically(func(tx *Txn) error {
				sum = 0
				for _, r := range refs {
					sum += r.Get(tx)
				}
				return nil
			})
			if want := int(succeeded.Load()) * 2; sum != want {
				t.Errorf("ref sum = %d, want %d", sum, want)
			}
		})
	}
}

// TestNoteOpRidesTraceEvents checks that NoteOp records are carried on the
// attempt's lifecycle events and reset between attempts.
func TestNoteOpRidesTraceEvents(t *testing.T) {
	var mu sync.Mutex
	var events []TraceEvent
	tracer := tracerFunc(func(ev TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	s := New(WithBackend("tl2"), WithTracer(tracer))
	r := NewRef(s, 0)
	if err := s.Atomically(func(tx *Txn) error {
		if !tx.Traced() {
			t.Fatal("Traced() = false with a tracer attached")
		}
		tx.NoteOp("put", 42)
		tx.NoteOp("get", 7)
		r.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ops := events[0].Ops
	if len(ops) != 2 || ops[0] != (OpRecord{Op: "put", Key: 42}) || ops[1] != (OpRecord{Op: "get", Key: 7}) {
		t.Fatalf("ops = %+v", ops)
	}
}

type tracerFunc func(TraceEvent)

func (f tracerFunc) Trace(ev TraceEvent) { f(ev) }

// tsFreeTracer counts events and opts out of timestamps.
type tsFreeTracer struct {
	events  atomic.Uint64
	nonzero atomic.Uint64
}

func (t *tsFreeTracer) Trace(ev TraceEvent) {
	t.events.Add(1)
	if ev.TS != 0 {
		t.nonzero.Add(1)
	}
}

func (t *tsFreeTracer) TimestampFree() {}

// TestTimestampFreeTracerSkipsClock checks that a TimestampFree tracer gets
// zero TS stamps (the clock read is skipped), a plain tracer gets real ones,
// and SetTracer re-evaluates the marker when the tracer is swapped.
func TestTimestampFreeTracerSkipsClock(t *testing.T) {
	free := &tsFreeTracer{}
	clockReads := atomic.Uint64{}
	s := New(WithTracer(free), WithClock(func() int64 {
		return int64(clockReads.Add(1))
	}))
	if err := s.Atomically(func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if free.events.Load() == 0 {
		t.Fatal("timestamp-free tracer saw no events")
	}
	if n := free.nonzero.Load(); n != 0 {
		t.Fatalf("timestamp-free tracer got %d non-zero TS stamps", n)
	}
	if n := clockReads.Load(); n != 0 {
		t.Fatalf("clock was read %d times despite TimestampFree tracer", n)
	}

	full := &atomicTracer{}
	s.SetTracer(full)
	if err := s.Atomically(func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if full.commits.Load() != 1 {
		t.Fatalf("plain tracer commits = %d, want 1", full.commits.Load())
	}
	if full.badTS.Load() != 0 {
		t.Fatal("plain tracer got a zero TS stamp after SetTracer swap")
	}
	if clockReads.Load() == 0 {
		t.Fatal("clock never read for the plain tracer")
	}
}
