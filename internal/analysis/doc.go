// Package analysis is oasis-vet: a go/analysis suite that enforces, at
// compile time, the contracts every determinism guarantee in this repository
// rests on. Byte-identical SweepReports across worker counts, crash/resume,
// and distributed workers are all consequences of a small set of coding
// disciplines; these analyzers turn each discipline from a convention that
// differential tests catch after the fact into a property `go vet` rejects
// before merge.
//
// The suite ships five analyzers, run together by cmd/oasis-vet via
// `go vet -vettool`:
//
//   - rngdiscipline: forbids the global math/rand (and math/rand/v2)
//     top-level functions and time-seeded RNG sources inside the
//     deterministic core (internal/{sim,data,attack,defense,fl,experiments,
//     dist} by default; -rngdiscipline.scope overrides). Randomness must
//     flow from the keyed sub-stream constructors so every draw is a pure
//     function of the scenario key.
//
//   - walltime: forbids time.Now and time.Since outside internal/obs
//     (-walltime.exempt overrides). Wall-clock reads in a report path make
//     output depend on the machine, not the scenario.
//     Genuine deadline/backoff code opts out per site with the directive
//     described below, which must carry a justification.
//
//   - mapiter: flags `range` over a map whose body feeds an order-sensitive
//     sink — appending to a slice, fmt printing, io writes, or JSON/gob
//     encoding — without the appended slice being sorted afterwards in the
//     same function. This is the exact bug class that silently breaks
//     report byte-identity. Collect-then-sort is recognized and not
//     flagged; iterating a pre-sorted key slice never triggers it at all.
//
//   - poolpair: flow-sensitive check that every tensor acquired from the
//     workspace arena (tensor.NewPooled / (*Tensor).ClonePooled) reaches a
//     Release on every path, is deferred, or visibly transfers ownership
//     (returned, stored, or passed to another function). A pooled tensor
//     that leaks on an early-return path defeats the arena.
//
//   - spanpair: the same flow check for tracing spans — every obs.Start
//     must be paired with (*Span).End on every path, directly or deferred.
//     Discarding the span (`ctx, _ := obs.Start(...)`) is always an error.
//     An unterminated span corrupts the trace tree oasis-trace validates.
//
// # Directive grammar
//
// Every analyzer honors a line-scoped escape hatch:
//
//	//oasis:allow-<analyzer> <justification>
//
// e.g. `//oasis:allow-walltime lease expiry is wall-clock by design`.
// The directive suppresses that analyzer's diagnostics when it appears at
// the end of the flagged line, alone on the line immediately above it, or
// in the doc comment of the enclosing function (which exempts the whole
// function). The justification is mandatory: a directive without one does
// not suppress anything and is itself reported, so the tree can never
// accumulate silent opt-outs.
//
// All five analyzers skip _test.go files and generated files: the
// contracts protect production report paths, and tests routinely need ad
// hoc clocks and randomness.
//
// # Running
//
//	go build -o oasis-vet ./cmd/oasis-vet
//	go vet -vettool=./oasis-vet ./...
//
// CI runs exactly this in the smoke tier and fails on any diagnostic.
// Each analyzer has an analysistest-style golden suite under testdata/src,
// and testdata/vetmodule is a self-contained fixture module the e2e test
// vets through the real `go vet -vettool` pipeline.
//
// The rules these analyzers enforce are written out as the determinism
// contract in the README ("Determinism contract" section); internal/obs
// and internal/tensor document the span and arena halves of it.
package analysis
