package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/optimizer"
)

// Distributed rank runner. RunRank is one rank's side of a failure-tolerant
// in situ run: every rank consumes the same deterministic source and steps
// it through the package's one Driver, which compresses the partitions this
// rank owns (see the package comment for the step protocol). What RunRank
// adds is its own: the rank's v3 shard (core.ShardStepFields), the commit
// barrier — a step commits only when it succeeds on every alive rank — and
// recovery.
//
// When a rank dies, the transport surfaces *apierr.RankFailedError from the
// collective instead of hanging. Every survivor then rolls its shard back to
// the last committed step (StreamWriter.TruncateSteps — a no-op on ranks the
// failure caught before they wrote), drops the calibration state the
// attempt staged, and retries the step; the Driver recomputes the partition
// assignment over the survivor set (core.AssignPartitions — pure function of
// (nParts, alive), no negotiation). Every rank holds the full per-field
// state and every plan is computed from the gathered, partition-ID-ordered
// feature vector, so the retried frames are byte-identical to what a healthy
// run would have produced, and the merged archive (core.MergeShards) matches
// bit for bit what Driver.Run writes in a single process from the same
// source, budgets and policy.

// RankConfig configures one rank of a distributed run. Every rank must be
// constructed with identical configuration — the assignment and the error
// bounds are derived from it deterministically, with no negotiation.
type RankConfig struct {
	// Engine is the compression engine configuration (identical on every
	// rank: partition dim, codec, clamp factor and strategy all shape the
	// bytes).
	Engine core.Config
	// AvgEB is the default quality budget per field, absolute. A relative
	// one would resolve identically on every rank (the gathered features
	// give each the same global mean), but there is no field to ask for it,
	// and a launcher that forgot a field's budget is told so (ErrBadConfig)
	// rather than handed Options.RelAvgEB's default.
	AvgEB float64
	// AvgEBs overrides the budget for specific fields.
	AvgEBs map[string]float64
	// Halo optionally enforces the halo-mass budget per field. Boundary
	// cells are counted in each step's feature scan.
	Halo map[string]*optimizer.HaloConstraint
	// MaxStepRetries bounds how many rank failures one step may absorb
	// before the run gives up (default: the initial world size — each retry
	// consumes at least one dead rank).
	MaxStepRetries int
	// OnCommit, when set, observes each committed step.
	OnCommit func(step, epoch int)
	// OnFailure, when set, observes each detected rank failure.
	OnFailure func(failedRank, epoch int)
}

// RankRunStats reports one rank's view of a distributed run.
type RankRunStats struct {
	// Rank is this rank's ID.
	Rank int
	// Steps is the number of committed steps.
	Steps int
	// Retries counts step attempts abandoned because a rank failed.
	Retries int
	// FinalEpoch is the membership epoch after the run (0 = no failures).
	FinalEpoch int
	// Alive is the surviving rank set after the run.
	Alive []int
	// Collectives is the number of collectives this rank executed.
	Collectives int64
}

// RunRank runs this rank's side of a distributed compression run: it
// consumes src until io.EOF, writes this rank's shard stream to shard, and
// commits each step with a barrier. See the comment at the top of this file
// for the failure protocol. The shard writer must additionally support
// Truncate and Seek (e.g. *os.File) for failure rollback; a plain writer
// works as long as no rank dies.
//
// The caller merges the shards afterwards with core.MergeShards; the merged
// stream is byte-identical to a single-process Driver.Run over the same
// source and budgets, regardless of rank count or mid-run failures.
func RunRank(ctx context.Context, t mpi.Transport, src Source, shard io.Writer, cfg RankConfig) (*RankRunStats, error) {
	eng, err := core.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	drv, err := newDriver(eng, Options{}, t, cfg.Halo, cfg.budget)
	if err != nil {
		return nil, err
	}
	return drv.runRank(ctx, t, src, shard, cfg)
}

// budget is the Driver's budget rule for a rank run: a field's AvgEBs entry,
// else AvgEB, and a config error when neither is positive.
func (cfg RankConfig) budget(name string, _ float64) (float64, error) {
	eb, ok := cfg.AvgEBs[name]
	if !ok {
		eb = cfg.AvgEB
	}
	if !(eb > 0) || math.IsInf(eb, 1) {
		return 0, fmt.Errorf("pipeline: %w: RunRank needs a positive finite absolute budget for field %q (AvgEB or AvgEBs), got %g", apierr.ErrBadConfig, name, eb)
	}
	return eb, nil
}

// runRank is RunRank's step loop over a Driver built on t; cfg supplies the
// retry bound and the hooks.
func (d *Driver) runRank(ctx context.Context, t mpi.Transport, src Source, shard io.Writer, cfg RankConfig) (*RankRunStats, error) {
	comm := mpi.NewComm(t)
	sw, err := core.NewStreamWriter(shard)
	if err != nil {
		return nil, err
	}
	maxRetries := cfg.MaxStepRetries
	if maxRetries <= 0 {
		maxRetries = t.Size()
	}

	st := &RankRunStats{Rank: t.Rank()}
	committed := 0
	for {
		snap, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, fmt.Errorf("pipeline: rank %d source: %w", t.Rank(), err)
		}

		retries := 0
		for { // one iteration per attempt at this step
			if err := ctx.Err(); err != nil {
				return st, fmt.Errorf("pipeline: rank %d canceled after %d steps: %w", t.Rank(), committed, err)
			}
			res, err := d.step(ctx, snap, StepOptions{})
			if res != nil {
				if ferr := res.firstErr(); ferr != nil {
					err = ferr // the field's own error carries the cause
				}
			}
			var block map[string]*core.CompressedField
			if err == nil {
				block, err = core.ShardStepFields(res.Fields)
			}
			if err == nil {
				if err = sw.WriteStep(block); err != nil {
					return st, err
				}
				// Commit barrier: the coordinator releases it only once every
				// alive rank has written its shard step, so either all
				// survivors commit this step or none do.
				err = comm.Barrier()
				if err == nil {
					d.commit(res)
					committed++
					st.Steps = committed
					if cfg.OnCommit != nil {
						cfg.OnCommit(committed-1, t.Epoch())
					}
					break
				}
			}
			var rf *apierr.RankFailedError
			if !errors.As(err, &rf) {
				return st, fmt.Errorf("pipeline: rank %d: %w", t.Rank(), err)
			}
			if errors.Is(err, apierr.ErrCoordinatorLost) {
				// This rank's own link to the coordinator is gone: there is
				// no world left to retry in, and no way to learn whether the
				// step in flight committed — the others may hold our barrier
				// contribution. Leave the shard as written: MergeShards keeps
				// a committed step and drops the byte-identical copy of one
				// the survivors retried. A live coordinator reporting rank 0
				// dead is an ordinary peer failure, handled below.
				return st, fmt.Errorf("pipeline: rank %d lost the coordinator at step %d: %w", t.Rank(), committed, err)
			}
			// A peer died mid-step. Roll back whatever this attempt wrote
			// (a no-op when the failure arrived before our write), adopt the
			// survivor set, and retry the step under the new assignment.
			st.Retries++
			if cfg.OnFailure != nil {
				cfg.OnFailure(rf.Rank, rf.Epoch)
			}
			if terr := sw.TruncateSteps(committed); terr != nil {
				return st, fmt.Errorf("pipeline: rank %d rollback after failure of rank %d: %w", t.Rank(), rf.Rank, terr)
			}
			retries++
			if retries > maxRetries {
				return st, fmt.Errorf("pipeline: rank %d gave up after %d failed attempts at step %d: %w",
					t.Rank(), retries, committed, err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		return st, err
	}
	// Exit barrier: ranks return only when every survivor's shard is
	// complete, so the merger may read them immediately. A failure here is
	// survivable — the dead rank's shard is complete (it committed every
	// step) — so re-enter the barrier with the survivors.
	for tries := 0; ; tries++ {
		err := comm.Barrier()
		if err == nil {
			break
		}
		var rf *apierr.RankFailedError
		if !errors.As(err, &rf) || tries >= maxRetries {
			return st, err
		}
		if cfg.OnFailure != nil {
			cfg.OnFailure(rf.Rank, rf.Epoch)
		}
	}
	st.FinalEpoch = t.Epoch()
	st.Alive = t.Alive()
	st.Collectives, _ = t.Stats()
	return st, nil
}
