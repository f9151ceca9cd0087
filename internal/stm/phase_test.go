package stm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// phaseCollector is a PhaseTracer that retains every sample.
type phaseCollector struct {
	mu      sync.Mutex
	samples []PhaseSample
	events  atomic.Uint64
}

func (pc *phaseCollector) Trace(ev TraceEvent) { pc.events.Add(1) }

func (pc *phaseCollector) TracePhases(ps PhaseSample) {
	pc.mu.Lock()
	pc.samples = append(pc.samples, ps)
	pc.mu.Unlock()
}

// TestPhaseSampleInvariants drives every backend with a contended read-write
// workload under an attached PhaseTracer and checks the per-sample invariants:
// the phase breakdown partitions the attempt's total exactly, no phase is
// negative, and identity fields match the emitting instance.
func TestPhaseSampleInvariants(t *testing.T) {
	const (
		goroutines = 8
		txnsPerG   = 400
		refsN      = 8
	)
	for _, name := range BackendNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			pc := &phaseCollector{}
			s := New(WithBackend(name), WithTracer(pc))
			refs := make([]*Ref[int], refsN)
			for i := range refs {
				refs[i] = NewRef(s, 0)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < txnsPerG; i++ {
						_ = s.Atomically(func(tx *Txn) error {
							a := refs[(id+i)%refsN]
							b := refs[(id*7+i*3)%refsN]
							a.Set(tx, a.Get(tx)+b.Get(tx)+1)
							return nil
						})
					}
				}(g)
			}
			wg.Wait()

			pc.mu.Lock()
			defer pc.mu.Unlock()
			if len(pc.samples) == 0 {
				t.Fatal("no phase samples collected")
			}
			// Sampling is 1-in-8 on average; with 3200 transactions the
			// sample count should land well inside (1%, 50%) of events.
			ev := pc.events.Load()
			if n := uint64(len(pc.samples)); n*100 < ev || n*2 > ev {
				t.Errorf("samples = %d of %d events, outside plausible 1-in-8 range", n, ev)
			}
			for _, ps := range pc.samples {
				if ps.Backend != name {
					t.Fatalf("sample backend = %q, want %q", ps.Backend, name)
				}
				if ps.Kind != TraceCommit && ps.Kind != TraceAbort {
					t.Fatalf("sample kind = %v", ps.Kind)
				}
				if ps.Kind == TraceCommit && ps.Cause != CauseNone {
					t.Fatalf("commit sample carries cause %v", ps.Cause)
				}
				var sum int64
				for i, d := range ps.PhaseNS {
					if d < 0 {
						t.Fatalf("phase %s negative: %d", Phase(i), d)
					}
					sum += d
				}
				if sum != ps.TotalNS {
					t.Fatalf("phase sum %d != total %d (%+v)", sum, ps.TotalNS, ps)
				}
				if ps.Attempt < 1 {
					t.Fatalf("sample attempt = %d", ps.Attempt)
				}
			}
		})
	}
}

// TestPhaseBlindTracerUntouched checks that a tracer without the PhaseTracer
// facet disables phase accounting entirely (phaseOn stays false) and that
// swapping tracers re-evaluates the facet.
func TestPhaseBlindTracerUntouched(t *testing.T) {
	plain := &atomicTracer{}
	s := New(WithBackend("tl2"), WithTracer(plain), WithClock(func() int64 { return 1 }))
	if s.phaser != nil {
		t.Fatal("phaser set for a phase-blind tracer")
	}
	r := NewRef(s, 0)
	for i := 0; i < 64; i++ {
		if err := s.Atomically(func(tx *Txn) error {
			r.Set(tx, r.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	pc := &phaseCollector{}
	s.SetTracer(pc)
	if s.phaser == nil {
		t.Fatal("phaser not set after SetTracer swap to a PhaseTracer")
	}
}

// TestPhaseNames pins the phase enum to its stable wire names.
func TestPhaseNames(t *testing.T) {
	want := []string{"body", "read", "validate", "lock", "stamp", "publish"}
	got := PhaseNames()
	if len(got) != NumPhases {
		t.Fatalf("PhaseNames() returned %d names, want %d", len(got), NumPhases)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("phase %d = %q, want %q", i, got[i], w)
		}
		if Phase(i).String() != w {
			t.Errorf("Phase(%d).String() = %q, want %q", i, Phase(i).String(), w)
		}
	}
}

// TestShardClocksSingleRef checks shard heat stays observable through the
// clocks alone: after a concurrent single-ref workload only the written
// shard's clock moved, it moved at least once per commit (an attempt that is
// stamped and then fails validation bumps too), and the skew equals it.
func TestShardClocksSingleRef(t *testing.T) {
	const (
		goroutines = 8
		txnsPerG   = 300
	)
	s := newSharded(4, WithBackend("tl2"))
	r := NewRef(s, 0) // single ref: every writing commit is single-shard
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txnsPerG; i++ {
				_ = s.Atomically(func(tx *Txn) error {
					r.Set(tx, r.Get(tx)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()

	clocks := s.ShardClocks(nil)
	if len(clocks) != s.nShards {
		t.Fatalf("clock rows = %d, want %d", len(clocks), s.nShards)
	}
	hot := int(r.b.shard)
	for sh, c := range clocks {
		if sh != hot && c != 0 {
			t.Errorf("shard %d clock = %d, want 0 (never written)", sh, c)
		}
	}
	if c := s.Stats().Commits; clocks[hot] < c {
		t.Errorf("written shard clock %d < commits %d", clocks[hot], c)
	}
	if got := s.ShardClockSkew(); got != clocks[hot] {
		t.Errorf("ShardClockSkew = %d, want the written shard's clock %d", got, clocks[hot])
	}
}
