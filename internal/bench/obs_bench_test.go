package bench

import "testing"

// benchmarkFigure4Path times the Figure-4 hot path (the eager/optimistic
// Proustian map under the standard mixed workload) with and without the full
// observability stack attached. The instrumented/uninstrumented ratio is the
// number the ≤5% overhead budget is judged against (recorded in
// bench/history/BENCH_obs.json).
func benchmarkFigure4Path(b *testing.B, o *Observability) {
	f, ok := FactoryByName("proust-eager-opt")
	if !ok {
		b.Fatal("factory missing")
	}
	f = o.Instrumented(f)
	w := Workload{
		Threads: 4, OpsPerTxn: 16, WriteFraction: 0.5,
		KeyRange: DefaultKeyRange, TotalOps: 100000, Seed: 42,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// System construction and prepopulation stay outside the timed
		// region, matching Run's own Duration (measured from after
		// prepopulation); the benchmark counts the workload, not setup.
		b.StopTimer()
		sys, err := Prepare(f, w)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := RunPrepared(sys, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.TotalOps)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkObservabilityOff(b *testing.B) { benchmarkFigure4Path(b, nil) }

func BenchmarkObservabilityOn(b *testing.B) { benchmarkFigure4Path(b, NewObservability(0)) }
