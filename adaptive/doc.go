// Package adaptive is the public, versioned facade of the reproduction of
// "Adaptive Configuration of In Situ Lossy Compression for Cosmology
// Simulations via Fine-Grained Rate-Quality Modeling" (Jin et al.,
// HPDC '21). It is the only package external programs should import —
// everything under internal/ is implementation detail with no
// compatibility promise.
//
// The facade wraps the whole stack behind one constructor with functional
// options:
//
//	sys, err := adaptive.New(
//		adaptive.WithCodec("sz"),
//		adaptive.WithPartitionDim(16),
//	)
//
// A System is both the per-snapshot configurator and the streaming driver:
//
//	cal, _ := sys.Calibrate(ctx, field)                  // once per field kind
//	plan, _ := sys.Plan(ctx, field, cal, adaptive.PlanOptions{AvgEB: 0.1})
//	cf, _ := sys.CompressAdaptive(ctx, field, plan)      // per snapshot
//	recon, _ := cf.Decompress(ctx)
//
// or, for a running simulation, the in situ pipeline with calibration
// reuse and drift-triggered refits:
//
//	stats, err := sys.Run(ctx, source)                   // until io.EOF or cancel
//
// The same step driver serves a distributed run: RunRank is one rank of N
// (in-process via RunWorld, or TCP via JoinWorld), each compressing the
// partitions it owns into its own shard, and MergeShards reassembles them
// into the archive sys.Run writes in a single process for the same source,
// budgets and policy — byte for byte, at any rank count and across mid-run
// rank failures. The protocol is the same everywhere: rank-local feature
// scan, one gather of the per-partition features, one planner run on the
// full vector on every rank (so mean(eb) equals the budget exactly), rank-
// local compression; CompressInSitu runs it once over a simulated world and
// returns the bytes of Plan + CompressAdaptive.
//
// # Cancellation
//
// Every long-running entry point takes a context.Context. Cancellation is
// cooperative and checked between partitions (and between steps in a run),
// never mid-partition, so the bitstreams of completed work are bit-exact
// and a canceled streaming run leaves a valid truncated archive: close the
// configured StreamWriter and OpenStream reads every completed step.
//
// # Errors
//
// Failures wrap four sentinels — ErrBadConfig, ErrCorruptArchive,
// ErrCodecUnknown, ErrDriftRecalibration — at every layer boundary, so
// errors.Is classifies any error the facade returns, and cancellations
// satisfy errors.Is(err, context.Canceled).
//
// # Backends
//
// Compression backends are pluggable; the sibling package adaptive/codecs
// registers them and exposes the codec-level interface for programs that
// want raw frame compression without the adaptive machinery.
//
// # Beyond the core pipeline
//
// The facade also re-exports the supporting toolkit the reproduction is
// built on: the synthetic Nyx-like snapshot generator and snapshot file
// I/O (GenerateSnapshot, ReadSnapshotFile), the analysis-aware quality
// metrics (power spectra, halo catalogs), quality-budget derivation
// (SpectrumBudget, HaloBudget), the Foresight-style evaluation harness
// (System.Foresight), and the paper's table/figure reproductions
// (Experiments, NewExperimentContext).
package adaptive
