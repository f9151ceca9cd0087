// Package proust_test hosts the repository-level benchmarks that regenerate
// the paper's evaluation as testing.B benchmarks: one benchmark family per
// Figure 4 series (per system, swept over o and u), plus the
// memoizing/log-combining ablation (Figure 4, bottom row) and the
// design-choice ablations called out in DESIGN.md.
//
// The full parameter grid (t up to 32, 10^6 ops, 10+10 repetitions) is
// produced by cmd/proust-bench; these benchmarks cover the same code paths
// at testing.B scale so `go test -bench` tracks regressions.
package proust_test

import (
	"fmt"
	"testing"

	"proust/internal/bench"
	"proust/internal/conc"
	"proust/internal/core"
	"proust/internal/stm"
)

// benchTxn runs one benchmark: b.N transactions of o operations with write
// fraction u against a fresh system.
func benchTxn(b *testing.B, factory bench.Factory, o int, u float64) {
	b.Helper()
	sys := factory.New()
	w := bench.Workload{
		Threads:       1,
		OpsPerTxn:     o,
		WriteFraction: u,
		KeyRange:      bench.DefaultKeyRange,
		TotalOps:      o, // per txn
		Seed:          42,
	}
	if err := bench.Prepopulate(sys, w.KeyRange); err != nil {
		b.Fatalf("prepopulate: %v", err)
	}
	ops := make([]bench.Op, o)
	r := bench.NewWorkloadRNG(w.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = bench.GenOp(r, w)
		}
		err := sys.STM.Atomically(func(tx *stm.Txn) error {
			for _, op := range ops {
				switch op.Kind {
				case bench.OpGet:
					sys.Map.Get(tx, op.Key)
				case bench.OpPut:
					sys.Map.Put(tx, op.Key, op.Val)
				case bench.OpRemove:
					sys.Map.Remove(tx, op.Key)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatalf("txn: %v", err)
		}
	}
	b.StopTimer()
	st := sys.STM.Stats()
	if st.Commits+st.Aborts > 0 {
		b.ReportMetric(float64(st.Aborts)/float64(st.Commits+st.Aborts), "aborts/txn")
	}
	b.ReportMetric(float64(o), "ops/txn")
}

// BenchmarkFigure4 regenerates the main grid: every system × o × u.
func BenchmarkFigure4(b *testing.B) {
	for _, f := range bench.Factories() {
		f := f
		os := []int{1, 16, 256}
		if f.OnlyO1 {
			os = []int{1}
		}
		for _, o := range os {
			for _, u := range []float64{0, 0.5, 1} {
				b.Run(fmt.Sprintf("%s/o=%d/u=%.2f", f.Name, o, u), func(b *testing.B) {
					benchTxn(b, f, o, u)
				})
			}
		}
	}
}

// BenchmarkFigure4Memo regenerates the bottom row: memoizing shadow copies
// with and without log combining, at large o where combining matters.
func BenchmarkFigure4Memo(b *testing.B) {
	for _, name := range []string{"proust-lazy-memo", "proust-lazy-memo-combining"} {
		f, ok := bench.FactoryByName(name)
		if !ok {
			b.Fatalf("factory %q missing", name)
		}
		for _, o := range []int{16, 256} {
			b.Run(fmt.Sprintf("%s/o=%d/u=1.00", name, o), func(b *testing.B) {
				benchTxn(b, f, o, 1)
			})
		}
	}
}

// BenchmarkAblationMemSize sweeps the conflict-abstraction table size M
// (the paper: "a parameter to be tuned later"; striping trades memory for
// false conflicts).
func BenchmarkAblationMemSize(b *testing.B) {
	for _, m := range []int{16, 128, 1024} {
		m := m
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			s := stm.New(stm.WithPolicy(stm.LazyLazy))
			lap := core.NewOptimisticLAP(s, func(k int) uint64 { return conc.IntHasher(k) }, m)
			txm := core.NewLazyMemoMap[int, int](s, lap, conc.IntHasher, true)
			sys := bench.System{Name: "memsize", STM: s, Map: txm}
			benchSystem(b, sys, 16, 0.5)
		})
	}
}

// BenchmarkAblationDetectionPolicy runs the same lazy/optimistic map on all
// three STM detection policies (Figure 1, right table).
func BenchmarkAblationDetectionPolicy(b *testing.B) {
	for _, p := range []stm.DetectionPolicy{stm.LazyLazy, stm.MixedEagerWWLazyRW, stm.EagerEager} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			s := stm.New(stm.WithPolicy(p))
			lap := core.NewOptimisticLAP(s, func(k int) uint64 { return conc.IntHasher(k) }, 1024)
			txm := core.NewLazyMemoMap[int, int](s, lap, conc.IntHasher, true)
			benchSystem(b, bench.System{Name: "policy", STM: s, Map: txm}, 16, 0.5)
		})
	}
}

// BenchmarkAblationContentionManager compares the contention managers on a
// high-conflict workload (tiny key range).
func BenchmarkAblationContentionManager(b *testing.B) {
	for _, cm := range []stm.ContentionManager{stm.Backoff{}, stm.Timestamp{}} {
		cm := cm
		b.Run(cm.Name(), func(b *testing.B) {
			s := stm.New(stm.WithPolicy(stm.MixedEagerWWLazyRW), stm.WithContentionManager(cm))
			lap := core.NewOptimisticLAP(s, func(k int) uint64 { return conc.IntHasher(k) }, 64)
			txm := core.NewMap[int, int](s, lap, conc.IntHasher)
			sys := bench.System{Name: "cm", STM: s, Map: txm}
			if err := bench.Prepopulate(sys, 32); err != nil {
				b.Fatalf("prepopulate: %v", err)
			}
			w := bench.Workload{Threads: 1, OpsPerTxn: 4, WriteFraction: 0.75, KeyRange: 32, Seed: 7}
			ops := make([]bench.Op, w.OpsPerTxn)
			r := bench.NewWorkloadRNG(w.Seed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					ops[j] = bench.GenOp(r, w)
				}
				if err := sys.STM.Atomically(func(tx *stm.Txn) error {
					for _, op := range ops {
						switch op.Kind {
						case bench.OpGet:
							sys.Map.Get(tx, op.Key)
						case bench.OpPut:
							sys.Map.Put(tx, op.Key, op.Val)
						case bench.OpRemove:
							sys.Map.Remove(tx, op.Key)
						}
					}
					return nil
				}); err != nil {
					b.Fatalf("txn: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationSizeRef isolates the cost of the reified committed size
// (paper Listing 2): a replace-only workload never changes the size and
// never touches its conflict location; a mixed put/remove workload writes
// that location on every presence change, making it a shared conflict
// hotspot (the count itself is an atomic published at commit, no cell).
func BenchmarkAblationSizeRef(b *testing.B) {
	f, ok := bench.FactoryByName("proust-lazy-memo-combining")
	if !ok {
		b.Fatal("factory missing")
	}
	for _, replaceOnly := range []bool{false, true} {
		replaceOnly := replaceOnly
		name := "mixed-writes"
		if replaceOnly {
			name = "replace-only"
		}
		b.Run(name, func(b *testing.B) {
			sys := f.New()
			w := bench.Workload{
				Threads: 1, OpsPerTxn: 16, WriteFraction: 1,
				KeyRange: bench.DefaultKeyRange, Seed: 42, ReplaceOnly: replaceOnly,
			}
			if err := bench.Prepopulate(sys, w.KeyRange); err != nil {
				b.Fatalf("prepopulate: %v", err)
			}
			ops := make([]bench.Op, w.OpsPerTxn)
			r := bench.NewWorkloadRNG(w.Seed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					ops[j] = bench.GenOp(r, w)
				}
				if err := sys.STM.Atomically(func(tx *stm.Txn) error {
					for _, op := range ops {
						switch op.Kind {
						case bench.OpGet:
							sys.Map.Get(tx, op.Key)
						case bench.OpPut:
							sys.Map.Put(tx, op.Key, op.Val)
						case bench.OpRemove:
							sys.Map.Remove(tx, op.Key)
						}
					}
					return nil
				}); err != nil {
					b.Fatalf("txn: %v", err)
				}
			}
		})
	}
}

// BenchmarkPQueue compares the eager (PriorityBlockingQueue + lazy
// deletion) and lazy (copy-on-write heap + snapshot replay) Proustian
// priority queues.
func BenchmarkPQueue(b *testing.B) {
	intLess := func(a, c int) bool { return a < c }
	intEq := func(a, c int) bool { return a == c }
	build := map[string]func(s *stm.STM) core.TxPQueue[int]{
		"eager": func(s *stm.STM) core.TxPQueue[int] {
			return core.NewPQueue[int](s, core.NewOptimisticLAP(s, core.PQStateHash, 4), intLess, intEq)
		},
		"lazy": func(s *stm.STM) core.TxPQueue[int] {
			return core.NewLazyPQueue[int](s, core.NewOptimisticLAP(s, core.PQStateHash, 4), intLess, intEq)
		},
	}
	for name, mk := range build {
		mk := mk
		b.Run(name, func(b *testing.B) {
			s := stm.New(stm.WithPolicy(stm.LazyLazy))
			q := mk(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Atomically(func(tx *stm.Txn) error {
					q.Insert(tx, i%1000)
					if i%2 == 1 {
						q.RemoveMin(tx)
						q.RemoveMin(tx)
					}
					return nil
				}); err != nil {
					b.Fatalf("txn: %v", err)
				}
			}
		})
	}
}

func benchSystem(b *testing.B, sys bench.System, o int, u float64) {
	b.Helper()
	if err := bench.Prepopulate(sys, bench.DefaultKeyRange); err != nil {
		b.Fatalf("prepopulate: %v", err)
	}
	w := bench.Workload{
		Threads: 1, OpsPerTxn: o, WriteFraction: u,
		KeyRange: bench.DefaultKeyRange, Seed: 42,
	}
	ops := make([]bench.Op, o)
	r := bench.NewWorkloadRNG(w.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = bench.GenOp(r, w)
		}
		if err := sys.STM.Atomically(func(tx *stm.Txn) error {
			for _, op := range ops {
				switch op.Kind {
				case bench.OpGet:
					sys.Map.Get(tx, op.Key)
				case bench.OpPut:
					sys.Map.Put(tx, op.Key, op.Val)
				case bench.OpRemove:
					sys.Map.Remove(tx, op.Key)
				}
			}
			return nil
		}); err != nil {
			b.Fatalf("txn: %v", err)
		}
	}
}
