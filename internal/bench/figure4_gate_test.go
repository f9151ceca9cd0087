package bench

import "testing"

// figure4AllocBudget is the Figure-4 hot-path allocation gate: allocations
// per benchmark iteration (100k ops = 6250 transactions of 16 ops) on the
// eager/optimistic Proustian map. History: 627k at the observability PR,
// 210k after the zero-allocation ADT layer, 40–45k once the Ctrie gained
// epoch-pooled nodes (DESIGN.md §13), 14–28k while every attempt allocated
// its own conflict-abstraction token, 7.8–12.9k alone and 7.8–16.9k beside
// a looping `go test ./...` while every size-changing transaction published
// a committed-size cell (6250 per iteration). Now, on 2 CPUs, 1.8–2.4k run
// alone (20 runs) and 1.4–10.0k beside a looping `go test ./...` (60 runs,
// median 2.4k). The structure's and the wrapper's steady states allocate
// nothing; what remains grows with the host's load.
const figure4AllocBudget = 12000

// TestFigure4AllocGate runs the Figure-4 hot path under the benchmark
// harness and fails if allocations per iteration regress past the budget.
// CI runs this in the bench-smoke job.
func TestFigure4AllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate; skipped in -short runs")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchmarkFigure4Path(b, nil)
	})
	allocs := res.AllocsPerOp()
	t.Logf("Figure-4 hot path: %d allocs/iter (budget %d), %d bytes/iter",
		allocs, figure4AllocBudget, res.AllocedBytesPerOp())
	if allocs > figure4AllocBudget {
		t.Fatalf("Figure-4 hot path allocates %d/iter, budget is %d — the Ctrie pooling or the ADT layer regressed",
			allocs, figure4AllocBudget)
	}
}
