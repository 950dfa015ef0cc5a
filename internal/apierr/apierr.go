// Package apierr holds the sentinel errors of the public error taxonomy.
//
// The sentinels are defined here — below internal/ — because every layer
// of the stack wraps them (codec lookups, archive parsers, config
// validation, the streaming driver), and the public facade re-exports the
// same values as adaptive.ErrBadConfig, adaptive.ErrCorruptArchive,
// adaptive.ErrCodecUnknown, and adaptive.ErrDriftRecalibration. Because
// re-export is by value (var aliasing), errors.Is from a facade-level call
// matches no matter how many layers wrapped the error with %w on the way
// up.
//
// Wrapping convention: each layer keeps its stable "pkg:" message prefix
// and wraps both the sentinel and the underlying cause, e.g.
//
//	fmt.Errorf("core: %w: bad archive magic %q", apierr.ErrCorruptArchive, m)
//	fmt.Errorf("core: partition %d: %w", i, err) // cause already tagged
//
// The taxonomy's wire form lives here too: WriteError renders an error as
// the JSON envelope both HTTP services answer with, and ErrorFromResponse
// turns that envelope back into the sentinel on the client side.
package apierr

import (
	"errors"
	"fmt"
)

var (
	// ErrBadConfig marks a rejected configuration: a non-positive
	// partition dim, an out-of-range clamp factor, a non-positive quality
	// budget, a field whose geometry does not match the engine layout.
	ErrBadConfig = errors.New("invalid configuration")

	// ErrCorruptArchive marks an archive (v2 field archive, v3 stream
	// container, or a codec frame inside one) that failed validation:
	// bad magic, hostile header, truncation, trailing bytes, CRC mismatch.
	ErrCorruptArchive = errors.New("corrupt archive")

	// ErrCodecUnknown marks a codec ID no backend is registered for,
	// whether it came from configuration or from a frame header.
	ErrCodecUnknown = errors.New("unknown codec")

	// ErrDriftRecalibration marks a mid-run recalibration failure: the
	// streaming driver detected drift (or was told to re-fit), and fitting
	// the new rate model failed. The initial calibration of a field is a
	// plain error — only re-fits of an already-calibrated field carry this
	// sentinel, so callers can distinguish "the stream went bad mid-run"
	// from "the run never got started".
	ErrDriftRecalibration = errors.New("drift recalibration failed")

	// ErrOverloaded marks a request the compression service refused in
	// order to keep its queues bounded: the tenant's admission queue was
	// full (backpressure) or the server was shutting down. The request was
	// never started; retrying after a backoff is safe and is what the
	// service's 429 responses advertise.
	ErrOverloaded = errors.New("server overloaded")

	// ErrDraining marks a request refused because the service is in
	// lame-duck drain (SIGTERM received): admission is closed while
	// in-flight work finishes. Like ErrOverloaded the request was never
	// started, so retrying is safe — but against a replacement instance,
	// which is why the service answers 503 rather than 429.
	ErrDraining = errors.New("server draining")

	// ErrCircuitOpen marks a request the resilient client refused locally:
	// its per-endpoint circuit breaker is open after consecutive failures,
	// and sending more traffic at a struggling endpoint would deepen the
	// overload. The request never left the client; retry after the
	// breaker's cooldown.
	ErrCircuitOpen = errors.New("circuit open")

	// ErrNotFound marks a read request naming a resource the server does
	// not have: an unknown archive stream, a step past the end, a field
	// the snapshot never carried. It is a client-addressing error (HTTP
	// 404), not corruption — the archive that is there is healthy.
	ErrNotFound = errors.New("not found")

	// ErrRankFailed marks a distributed collective that lost a peer rank:
	// the rank panicked (in-process world) or stopped heartbeating /
	// dropped its connection (TCP transport). The collective's result was
	// discarded on every surviving rank, so the step that issued it can be
	// retried after rebalancing the dead rank's partitions onto the
	// survivors. Surviving ranks always get this error instead of hanging.
	ErrRankFailed = errors.New("rank failed")

	// ErrCoordinatorLost marks the one rank failure a survivor cannot retry
	// through: this rank's own link to the world's coordinator is gone, so
	// there is no membership left to rebalance in. Transports put it in the
	// cause chain of the *RankFailedError they return from then on; a live
	// coordinator's notice about a peer — rank 0 included — never carries it.
	ErrCoordinatorLost = errors.New("coordinator lost")
)

// DriftRecalibrationError is the typed form of ErrDriftRecalibration: it
// records which field's re-fit failed and the drift that triggered it, so
// callers can errors.As for the details while errors.Is still matches the
// sentinel (both the sentinel and the cause are in the unwrap chain).
type DriftRecalibrationError struct {
	// Field is the streamed field whose recalibration failed.
	Field string
	// Drift is the relative drift of the global mean feature from the
	// calibration anchor, measured when the re-fit was triggered.
	Drift float64
	// Err is the underlying calibration failure.
	Err error
}

func (e *DriftRecalibrationError) Error() string {
	return fmt.Sprintf("%v for field %q at drift %.3g: %v", ErrDriftRecalibration, e.Field, e.Drift, e.Err)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *DriftRecalibrationError) Unwrap() []error { return []error{ErrDriftRecalibration, e.Err} }

// OverloadError is the typed form of ErrOverloaded: it records which
// tenant's queue refused the request and how deep that queue was, so
// callers can errors.As for the details while errors.Is still matches the
// sentinel.
type OverloadError struct {
	// Tenant is the admission queue that was full.
	Tenant string
	// QueueDepth is the tenant queue's configured capacity, all of it in
	// use when the request was refused.
	QueueDepth int
	// RetryAfterSeconds is the server's estimate of when retrying might
	// succeed, derived from the refused tenant's backlog and drain rate and
	// clamped to [1, 30]. Zero when the refusing layer made no estimate
	// (callers should fall back to their own backoff).
	RetryAfterSeconds int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: tenant %q queue full (%d queued)", ErrOverloaded, e.Tenant, e.QueueDepth)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RankFailedError is the typed form of ErrRankFailed: it records which
// rank was lost and the membership epoch opened by the failure, so a
// distributed step driver can errors.As for the details (refresh its view
// of the surviving ranks, rebalance, retry) while errors.Is still matches
// the sentinel.
type RankFailedError struct {
	// Rank is the rank that was declared failed.
	Rank int
	// Epoch is the membership epoch in force after the failure was
	// detected (the in-process world, which cannot recover, always
	// reports 0).
	Epoch int
	// Err is the underlying cause — the recovered panic value, a
	// heartbeat timeout, a connection reset. May be nil when the detector
	// has only the fact of the failure.
	Err error
}

func (e *RankFailedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%v: rank %d (epoch %d): %v", ErrRankFailed, e.Rank, e.Epoch, e.Err)
	}
	return fmt.Sprintf("%v: rank %d (epoch %d)", ErrRankFailed, e.Rank, e.Epoch)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *RankFailedError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrRankFailed}
	}
	return []error{ErrRankFailed, e.Err}
}
