package adaptive

import (
	"io"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/optimizer"
	"repro/internal/pipeline"
)

// The facade's types are aliases of the implementation's, so values move
// between the public API and the internal packages without conversion and
// the archive formats stay byte-identical. Only the names below are part
// of the compatibility surface.

// Field is a dense 3-D float32 field in x-fastest layout.
type Field = grid.Field3D

// NewField allocates a zeroed nx×ny×nz field.
func NewField(nx, ny, nz int) *Field { return grid.NewField3D(nx, ny, nz) }

// Partitioner is a cubic brick layout over a field.
type Partitioner = grid.Partitioner

// PartitionerForBrickDim builds the layout cutting an n³ field into
// bricks of the given edge length.
func PartitionerForBrickDim(n, brickDim int) (*Partitioner, error) {
	return grid.PartitionerForBrickDim(n, brickDim)
}

// Calibration is a fitted rate model for one field kind; produce it with
// System.Calibrate and reuse it across snapshots.
type Calibration = core.Calibration

// CalibrationOptions tunes calibration sampling (see WithCalibration).
type CalibrationOptions = core.CalibrationOptions

// CalibrationMode selects how Calibrate fits the rate model
// (CalibrationOptions.Mode).
type CalibrationMode = core.CalibrationMode

const (
	// ModelScan fits from one streaming feature scan plus a single
	// validation compression per sampled partition (default). A guard-band
	// breach falls back to ProbeLadder per field, recorded on the
	// Calibration.
	ModelScan CalibrationMode = core.ModelScan
	// ProbeValidated runs the full probe ladder and reports the scan
	// model's out-of-sample residual alongside it.
	ProbeValidated CalibrationMode = core.ProbeValidated
	// ProbeLadder is the original measure-everything calibration.
	ProbeLadder CalibrationMode = core.ProbeLadder
)

// Plan is a chosen per-partition error-bound assignment for one field.
type Plan = core.Plan

// PlanOptions selects the quality budget for planning.
type PlanOptions = core.PlanOptions

// HaloConstraint is the halo-mass budget: what PlanOptions.Halo,
// InSituOptions.Halo and RankConfig.Halo carry. The step paths (in situ,
// distributed ranks) count BoundaryCells in each step's feature scan;
// one-shot planning takes them from HaloBudget.
type HaloConstraint = optimizer.HaloConstraint

// Strategy selects the error-bound allocation exponent (WithStrategy).
type Strategy = optimizer.Strategy

const (
	// EqualDerivative is the Lagrangian-optimal allocation (default).
	EqualDerivative Strategy = optimizer.EqualDerivative
	// PaperEq16 is the allocation exactly as printed in the paper's
	// Eq. 16 (kept for the ablation).
	PaperEq16 Strategy = optimizer.PaperEq16
)

// CompressedField is a field compressed partition-by-partition into
// self-describing codec frames.
type CompressedField = core.CompressedField

// ParseArchive reverses CompressedField.Bytes, resolving each partition's
// codec from its frame header and validating every stream. Validation
// failures wrap ErrCorruptArchive.
func ParseArchive(data []byte) (*CompressedField, error) {
	return core.ParseCompressedField(data)
}

// BudgetOptions controls how a power-spectrum quality target maps to an
// average-error-bound budget (SpectrumBudget).
type BudgetOptions = core.BudgetOptions

// HaloBudgetResult is the HaloConstraint derived from a reference snapshot
// (hand &r.HaloConstraint to PlanOptions.Halo) plus the reference catalog
// it was derived from.
type HaloBudgetResult = core.HaloBudgetResult

// InSituOptions configures one in situ compression (System.CompressInSitu).
type InSituOptions = core.InSituOptions

// InSituStats reports per-phase critical-path times and collective counts
// of an in situ compression.
type InSituStats = core.InSituStats

// Policy selects when the streaming pipeline (re)fits rate models.
type Policy = pipeline.Policy

const (
	// DriftTriggered recalibrates a field only when its global mean
	// feature drifts past the threshold (default, paper-faithful).
	DriftTriggered Policy = pipeline.DriftTriggered
	// CalibrateOnce fits on each field's first step only.
	CalibrateOnce Policy = pipeline.CalibrateOnce
	// CalibrateEveryStep re-fits on every step (the quality reference).
	CalibrateEveryStep Policy = pipeline.CalibrateEveryStep
)

// Source yields successive simulation snapshots; the stream ends with
// io.EOF. Synthetic streams (NewSynthStream) satisfy it directly.
type Source = pipeline.Source

// SourceFunc adapts a plain function to the Source interface.
type SourceFunc = pipeline.SourceFunc

// FromChannel adapts a snapshot channel to a Source; a closed channel
// ends the stream.
func FromChannel(ch <-chan map[string]*Field) Source { return pipeline.FromChannel(ch) }

// FromSnapshots streams a pre-materialized step list.
func FromSnapshots(steps []map[string]*Field) Source { return pipeline.FromSnapshots(steps) }

// FieldStats reports one field of one streamed step.
type FieldStats = pipeline.FieldStats

// StepStats reports one streamed timestep.
type StepStats = pipeline.StepStats

// RunStats aggregates a whole streaming run.
type RunStats = pipeline.RunStats

// StreamWriter appends compressed steps to an archive v3 stream; close it
// to write the seekable footer index.
type StreamWriter = core.StreamWriter

// NewStreamWriter writes the stream header and returns a writer ready to
// accept steps (hand it to WithStreamWriter or write steps directly).
func NewStreamWriter(w io.Writer) (*StreamWriter, error) { return core.NewStreamWriter(w) }

// StreamReader reads an archive v3 stream with O(1) access to any step.
type StreamReader = core.StreamReader

// OpenStream validates the header and footer of a v3 stream of the given
// total size and loads its step index. Validation failures wrap
// ErrCorruptArchive.
func OpenStream(r io.ReaderAt, size int64) (*StreamReader, error) {
	return core.OpenStream(r, size)
}

// CheckpointOptions tunes NewCheckpointedStreamWriter.
type CheckpointOptions = core.CheckpointOptions

// NewCheckpointedStreamWriter is NewStreamWriter plus crash durability: on
// a writer that also supports io.WriterAt (an *os.File), it snapshots a
// valid footer every Interval steps without advancing the write cursor, so
// a process killed mid-run leaves a stream OpenStream accepts up to the
// last checkpoint — and RecoverStream salvages the steps written after it.
// The destination must implement io.WriterAt and Truncate(int64) (an
// *os.File does); once Close returns, the emitted bytes are identical to
// NewStreamWriter's.
func NewCheckpointedStreamWriter(w io.Writer, opt CheckpointOptions) (*StreamWriter, error) {
	return core.NewCheckpointedStreamWriter(w, opt)
}

// RecoveryReport says what RecoverStream salvaged and what it discarded.
type RecoveryReport = core.RecoveryReport

// RecoverStream salvages a torn archive v3 stream — one whose writer
// crashed before Close could write the footer index. It validates the
// header, walks step blocks forward as far as they parse, and returns a
// reader over every intact step plus a report of what was dropped. A
// stream whose footer is intact takes the OpenStream fast path and is
// reported Clean. Use StreamReader.WriteTo to re-serialize the salvage as
// a footer-valid stream. Unrecoverable streams (bad header, no intact
// steps) wrap ErrCorruptArchive.
func RecoverStream(r io.ReaderAt, size int64) (*StreamReader, *RecoveryReport, error) {
	return core.RecoverStream(r, size)
}
