package core

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/optimizer"
)

// In situ path (paper Secs. 3.6, 4.3). Each MPI rank owns a set of
// partitions; the protocol per field and snapshot is:
//
//  1. every rank scans the partitions it owns, in place (ScanOwned: mean
//     |value| and, for a density field with a halo budget, the
//     boundary-cell count);
//  2. one allgather of (partition ID, mean[, cells]) tuples hands every
//     rank the full per-partition feature vector, in partition-ID order
//     (FeatureScan.Gather);
//  3. every rank runs the same planner on that vector
//     (Engine.PlanFromFeatures → optimizer.Allocate: eb_m ∝ (C_m/C_a)^γ
//     clamped to [ebAvg/k, k·ebAvg] and rescaled so that mean(eb) = ebAvg
//     exactly — Eq. 10 makes the spectrum distortion a function of that
//     mean alone — then the halo-budget downscale of Eq. 11);
//  4. every rank compresses the partitions it owns at their planned bounds
//     (CompressOwned).
//
// The paper gathers only the global mean (one MPI_Allreduce) and evaluates
// step 3 per partition; gathering the vector costs the same one collective
// and lets the ranks run the mean-preserving rescale, which needs every
// partition's raw bound. Because the vector is ordered by partition ID, not
// by rank, the plan — and therefore every compressed byte — is invariant to
// scheduling, to the rank count and to which rank owns which partition: a
// one-rank world (nil communicator, no collective) is the degenerate case,
// and a post-failure rebalanced run reproduces the healthy run's archive
// bit for bit.

// InSituOptions configures one in situ compression.
type InSituOptions struct {
	// Ranks is the number of simulated MPI ranks (default: number of
	// partitions, capped at 64).
	Ranks int
	// AvgEB is the quality budget.
	AvgEB float64
	// Halo optionally enforces the halo-mass budget. Its BoundaryCells are
	// measured by the feature scan.
	Halo *optimizer.HaloConstraint
}

// InSituStats reports what happened inside the ranks.
type InSituStats struct {
	Ranks int
	// Critical-path (max over ranks) wall times per phase, each timed on
	// its rank around the phase's own work: time spent waiting in the
	// gather belongs to no phase.
	FeatureSeconds  float64
	OptimizeSeconds float64
	CompressSeconds float64
	// Collectives executed on the communicator.
	Collectives int64
	// EBs is the final per-partition assignment.
	EBs []float64
	// HaloScale is the downscale applied by the halo budget (1 = none).
	HaloScale float64
}

// FeatureOverhead returns feature+optimization time as a fraction of
// compression time (the paper's ~1 % claim).
func (s *InSituStats) FeatureOverhead() float64 {
	if s.CompressSeconds == 0 {
		return 0
	}
	return (s.FeatureSeconds + s.OptimizeSeconds) / s.CompressSeconds
}

// RankShard is one rank's share of an in situ compression.
type RankShard struct {
	// Field carries the frames of the partitions this rank owns.
	Field *CompressedField
	// Plan is the field-wide plan, identical on every rank.
	Plan *Plan
	// Per-phase wall times on this rank (see InSituStats).
	FeatureSeconds, OptimizeSeconds, CompressSeconds float64
}

// CompressInSituRank runs one rank's side of the protocol with a fixed
// calibration: scan, gather, plan, compress the owned partitions. The same
// function serves the in-process world (mpi.Run) and the TCP transport
// (internal/mpinet) — the communicator is the only difference. The
// streaming driver (internal/pipeline) makes the same four calls with its
// drift check and recalibration between the gather and the plan.
//
// Collective failures (a dead peer rank) surface as the transport's typed
// *apierr.RankFailedError; the caller owns retry/rebalance policy.
func (e *Engine) CompressInSituRank(ctx context.Context, c *mpi.Comm, f *grid.Field3D, cal *Calibration, opt InSituOptions) (*RankShard, error) {
	owned, err := e.OwnedPartitions(c, f)
	if err != nil {
		return nil, err
	}
	sh := &RankShard{}
	t0 := time.Now()
	scan, err := e.ScanOwned(ctx, f, owned, opt.Halo)
	if err != nil {
		return nil, err
	}
	sh.FeatureSeconds = time.Since(t0).Seconds()
	features, halo, err := scan.Gather(c)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sh.Plan, err = e.PlanFromFeatures(features, cal, PlanOptions{AvgEB: opt.AvgEB, Halo: halo})
	if err != nil {
		return nil, err
	}
	sh.OptimizeSeconds = time.Since(t1).Seconds()
	t2 := time.Now()
	sh.Field, err = e.CompressOwned(ctx, f, sh.Plan, owned)
	if err != nil {
		return nil, err
	}
	sh.CompressSeconds = time.Since(t2).Seconds()
	return sh, nil
}

// CompressInSitu runs the protocol over an in-process world of opt.Ranks
// simulated ranks and returns the adaptively compressed field — the same
// bytes Plan + CompressAdaptive give for the same calibration and budget,
// at any rank count. Cancellation is checked between partitions inside each
// rank's loops.
func (e *Engine) CompressInSitu(ctx context.Context, f *grid.Field3D, cal *Calibration, opt InSituOptions) (*CompressedField, *InSituStats, error) {
	p, err := e.partitioner(f)
	if err != nil {
		return nil, nil, err
	}
	ranks := opt.Ranks
	if ranks <= 0 {
		ranks = min(p.Count(), 64)
	}
	ranks = min(ranks, p.Count())

	var cf *CompressedField
	st := &InSituStats{Ranks: ranks}
	var mu sync.Mutex // guards cf and st
	runErr := mpi.Run(ranks, func(c *mpi.Comm) error {
		sh, err := e.CompressInSituRank(ctx, c, f, cal, opt)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if cf == nil {
			cf = sh.Field
			st.EBs = sh.Plan.EBs
			st.HaloScale = sh.Plan.Predicted.HaloScale
			st.Collectives, _ = c.Stats()
		}
		for pi, fr := range sh.Field.Parts {
			if fr != nil {
				cf.Parts[pi] = fr
			}
		}
		st.FeatureSeconds = math.Max(st.FeatureSeconds, sh.FeatureSeconds)
		st.OptimizeSeconds = math.Max(st.OptimizeSeconds, sh.OptimizeSeconds)
		st.CompressSeconds = math.Max(st.CompressSeconds, sh.CompressSeconds)
		return nil
	})
	if runErr != nil {
		return nil, nil, runErr
	}
	return cf, st, nil
}
