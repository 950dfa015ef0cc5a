// Package repro is a pure-Go reproduction of "Adaptive Configuration of In
// Situ Lossy Compression for Cosmology Simulations via Fine-Grained
// Rate-Quality Modeling" (Jin et al., HPDC '21).
//
// The public API lives in the adaptive package (and adaptive/codecs for
// backend registration) — see its documentation for the quickstart.
// Everything under internal/ is implementation detail with no
// compatibility promise; README.md documents the internal layout.
//
// There is one step protocol, whether a snapshot is compressed by one
// process or by many ranks: scan the partitions this rank owns, gather the
// per-partition features once (partition-ID order), plan the error bounds
// on the full vector with the one planner (mean(eb) held at the budget
// exactly), compress the owned partitions. A one-rank world is the
// degenerate case that exchanges nothing; an N-rank run's merged archive
// is byte-identical to it.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation:
//
//	go test -bench=. -benchtime=1x -benchmem .
//
// The tracked performance benchmark is the program in bench/, declared by
// BENCHMARK.json.
package repro
