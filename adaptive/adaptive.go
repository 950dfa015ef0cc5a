package adaptive

import (
	"context"

	"repro/internal/core"
	"repro/internal/foresight"
	"repro/internal/pipeline"
)

// System is the adaptive configurator plus its streaming driver: one
// object that calibrates rate models, plans per-partition error bounds,
// compresses snapshots (one-shot, in situ, or as a stream with calibration
// reuse), and remembers per-field calibration state across Run calls.
//
// A System is safe for concurrent use. All options resolve at New; the
// per-call hot paths never consult them, so going through the facade costs
// nothing over the internal engine (pinned by BenchmarkFacadeOverhead).
type System struct {
	eng *core.Engine
	drv *pipeline.Driver
	cal core.CalibrationOptions
}

// New builds a System from functional options. Configuration errors wrap
// ErrBadConfig; an unregistered backend name wraps ErrCodecUnknown.
func New(opts ...Option) (*System, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	cfg.pipe.Calibration = cfg.cal
	eng, err := core.NewEngine(cfg.engine)
	if err != nil {
		return nil, err
	}
	drv, err := pipeline.NewWithEngine(eng, cfg.pipe)
	if err != nil {
		return nil, err
	}
	return &System{eng: eng, drv: drv, cal: cfg.cal}, nil
}

// Codec returns the resolved backend's registry name.
func (s *System) Codec() string { return string(s.eng.Config().Codec) }

// PartitionDim returns the effective partition brick edge.
func (s *System) PartitionDim() int { return s.eng.Config().PartitionDim }

// Calibrate samples bit-rate/error-bound curves from a representative
// field and fits the rate model — the paper's offline step, done once per
// field kind and reused across snapshots. Cancellation is checked between
// sample compressions.
func (s *System) Calibrate(ctx context.Context, f *Field) (*Calibration, error) {
	return s.eng.Calibrate(ctx, f, s.cal)
}

// Features computes the per-partition rate-model predictor (mean |value|
// per partition, in partition-ID order); hand it to PlanFromFeatures to
// plan without re-scanning the field.
func (s *System) Features(ctx context.Context, f *Field) ([]float64, error) {
	return s.eng.Features(ctx, f)
}

// Plan computes the adaptive per-partition error bounds for a field under
// the given quality budget.
func (s *System) Plan(ctx context.Context, f *Field, cal *Calibration, opt PlanOptions) (*Plan, error) {
	return s.eng.Plan(ctx, f, cal, opt)
}

// PlanFromFeatures is Plan with the per-partition features already in
// hand (they must come from Features on a field of the same layout).
func (s *System) PlanFromFeatures(features []float64, cal *Calibration, opt PlanOptions) (*Plan, error) {
	return s.eng.PlanFromFeatures(features, cal, opt)
}

// CompressAdaptive compresses each partition with its planned error
// bound. Cancellation is checked between partitions, never mid-partition,
// so every produced frame is complete and bit-exact.
func (s *System) CompressAdaptive(ctx context.Context, f *Field, plan *Plan) (*CompressedField, error) {
	return s.eng.CompressAdaptive(ctx, f, plan)
}

// CompressStatic compresses every partition with the same bound — the
// paper's "traditional" baseline, kept for comparisons.
func (s *System) CompressStatic(ctx context.Context, f *Field, eb float64) (*CompressedField, error) {
	return s.eng.CompressStatic(ctx, f, eb)
}

// CompressInSitu runs the paper's in situ protocol over a simulated
// in-process world of opt.Ranks ranks: rank-local feature scan, one gather
// of the per-partition features, the same plan on every rank, rank-local
// compression. The result is byte-identical to Plan + CompressAdaptive on
// the same calibration and budget at any rank count; the stats report the
// per-phase critical path (the Sec. 4.3 overhead).
func (s *System) CompressInSitu(ctx context.Context, f *Field, cal *Calibration, opt InSituOptions) (*CompressedField, *InSituStats, error) {
	return s.eng.CompressInSitu(ctx, f, cal, opt)
}

// Run streams a simulation through the compressor until the source
// returns io.EOF: each step's fields are compressed with calibration
// reuse, recalibrating per the configured policy, appending to the
// configured stream writer. On error (including cancellation) the stats
// collected so far are returned alongside it; a canceled run never writes
// a partial step, so closing the writer yields a valid truncated stream.
func (s *System) Run(ctx context.Context, src Source) (*RunStats, error) {
	return s.drv.Run(ctx, src)
}

// Step compresses one snapshot's fields through the streaming pipeline,
// updating per-field calibration state.
func (s *System) Step(ctx context.Context, snap map[string]*Field) (*StepStats, error) {
	return s.drv.Step(ctx, snap)
}

// Calibration returns the streaming pipeline's current calibration for a
// field, or nil before the field's first step.
func (s *System) Calibration(name string) *Calibration {
	return s.drv.Calibration(name)
}

// Foresight returns an evaluation harness bound to this system's engine;
// set its exported fields (Halo, SpectrumTol, ...) before use.
func (s *System) Foresight() *ForesightEvaluator {
	return &foresight.Evaluator{Engine: s.eng}
}

// SpectrumBudget derives the average error bound that keeps a field's
// power spectrum within 1 ± Tolerance for k < KMax at the configured
// confidence (the paper's ±1 % band target).
func SpectrumBudget(f *Field, opt BudgetOptions) (float64, error) {
	return core.SpectrumBudget(f, opt)
}

// HaloBudget derives the halo-mass constraint for a density field from a
// reference catalog: the admissible total mass distortion for a
// mass-ratio RMSE within 1 ± tol.
func HaloBudget(f *Field, cfg HaloConfig, tol, refEB float64, p *Partitioner) (*HaloBudgetResult, error) {
	return core.HaloBudget(f, cfg, tol, refEB, p)
}

// MassFaultEstimate combines a plan with halo features to predict the
// halo-mass distortion of a compressed field (paper Eq. 11).
func MassFaultEstimate(tBoundary, refEB float64, boundaryCells []int, ebs []float64) (float64, error) {
	return core.MassFaultEstimate(tBoundary, refEB, boundaryCells, ebs)
}
