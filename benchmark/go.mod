// The benchmark is a module of its own so that building or testing the root
// module (tier-1: `go build ./... && go test ./...`) never compiles it. The
// module path sits under proust/ so the program under test's internal
// packages stay importable.
module proust/benchmark

go 1.22

require proust v0.0.0

replace proust => ../
