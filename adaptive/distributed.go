package adaptive

import (
	"context"
	"io"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/pipeline"
)

// Distributed operation. A distributed run is N rank processes joined to a
// coordinator over TCP (rank 0's process usually hosts it). Each rank
// consumes the same deterministic source and runs the same step driver
// System.Step runs — scan the partitions it owns, one gather of the
// per-partition features, the same plan on every rank, compress the owned
// partitions, sum the observed bytes — streaming its share into its own
// shard file; after the run, MergeShards reassembles the shards into the
// exact stream a single-process System.Run would have written for the same
// source, budgets and policy — byte-identical, regardless of rank count or
// mid-run rank failures.
//
// When a rank dies (crash, kill -9, network cut), the transport's failure
// detector surfaces a typed *RankFailedError from the pending collective
// instead of hanging. Survivors roll back the uncommitted step (shard bytes
// and calibration state alike), recompute the partition assignment over the
// survivor set, and retry under a new membership epoch. See cmd/adaptivemd
// for the complete launcher.

// ErrRankFailed marks a collective aborted because a peer rank died. The
// typed form, RankFailedError, names the rank and the membership epoch that
// its failure opened. Recoverable: re-issue the collective and the
// surviving ranks proceed without the dead one.
var ErrRankFailed = apierr.ErrRankFailed

// RankFailedError is the typed form of ErrRankFailed: errors.As extracts
// the failed rank and the new epoch, while errors.Is on the same error
// still matches the sentinel. Losing the coordinator itself is terminal;
// a live coordinator reporting rank 0's transport dead is not.
type RankFailedError = apierr.RankFailedError

// Transport is the rank-to-rank communication layer behind a Comm: the
// in-process world used by CompressInSitu and RunWorld, or a NetTransport
// joined over TCP.
type Transport = mpi.Transport

// NetTransport is one rank's TCP connection to a distributed world. Join
// returns it connected and failure-detected (heartbeats both ways).
type NetTransport = mpinet.Transport

// Coordinator is the membership and collective coordinator of a
// distributed world; run one (usually in the rank 0 process) and point
// every rank's Join at its address.
type Coordinator = mpinet.Coordinator

// NetConfig tunes a distributed world's failure detector and timeouts.
// The zero value gives production defaults (500ms heartbeats, 2s failure
// timeout).
type NetConfig = mpinet.Config

// ListenCoordinator starts a coordinator for a world of size ranks on addr
// (e.g. "127.0.0.1:0"; Addr reports the bound address).
func ListenCoordinator(addr string, size int, cfg NetConfig) (*Coordinator, error) {
	return mpinet.Listen(addr, size, cfg)
}

// JoinWorld connects this process's rank to the coordinator. Every rank in
// [0, size) must join exactly once.
func JoinWorld(addr string, rank, size int, cfg NetConfig) (*NetTransport, error) {
	return mpinet.Join(addr, rank, size, cfg)
}

// RunWorld runs fn once per rank of an in-process world of the given size
// (one goroutine each) — the zero-setup way to exercise the distributed
// path in tests and single-machine runs. A rank that panics or returns an
// error poisons the world: every other rank's pending and future
// collectives fail fast with a *RankFailedError instead of deadlocking.
func RunWorld(size int, fn func(Transport) error) error {
	return mpi.Run(size, func(c *mpi.Comm) error { return fn(c.Transport()) })
}

// EngineConfig is the compression engine configuration embedded in a
// RankConfig. Unlike System construction (functional options), distributed
// ranks take the engine config as a plain value so that "identical on every
// rank" is a comparable, printable artifact.
type EngineConfig = core.Config

// RankConfig configures one rank of a distributed run (identical on every
// rank).
type RankConfig = pipeline.RankConfig

// RankRunStats reports one rank's view of a distributed run.
type RankRunStats = pipeline.RankRunStats

// RunRank runs this rank's side of a distributed compression run: it
// consumes src until the end of the stream, writes this rank's shard
// stream to shard (use a file — rollback after a peer failure needs
// Truncate+Seek), and commits each step with a barrier. Budgets are
// absolute (RankConfig.AvgEB / AvgEBs); the recalibration schedule is the
// streaming default (drift-triggered). Peer failures are absorbed by
// rebalance-and-retry; the error return is reserved for terminal
// conditions (bad config, coordinator loss, local I/O failure).
func RunRank(ctx context.Context, t Transport, src Source, shard io.Writer, cfg RankConfig) (*RankRunStats, error) {
	return pipeline.RunRank(ctx, t, src, shard, cfg)
}

// ShardInput is one rank's shard stream handed to MergeShards.
type ShardInput = core.ShardInput

// MergeReport describes what MergeShards assembled.
type MergeReport = core.MergeReport

// MergeShards reassembles per-rank shard streams into one plain v3 stream,
// byte-identical to a single-process run of the same source and
// configuration. Torn shards (a killed rank's) are salvaged, and the
// byte-identical duplicates a retried step leaves behind are deduplicated.
// nParts is the partition count every field must tile to. Include every
// rank's shard — the dead rank's committed steps live only in its file.
func MergeShards(w io.Writer, shards []ShardInput, nParts int) (*MergeReport, error) {
	return core.MergeShards(w, shards, nParts)
}

// AssignPartitions deterministically shards nParts partitions across the
// alive ranks (round-robin over the sorted rank list) — the pure function
// every rank evaluates independently to agree on ownership without
// negotiation, before and after failures.
func AssignPartitions(nParts int, alive []int) map[int][]int {
	return core.AssignPartitions(nParts, alive)
}
