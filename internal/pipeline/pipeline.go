// Package pipeline streams a running simulation through the adaptive
// compressor. It is the time dimension of the paper's in situ story
// (Sec. 3.6): the rate-quality model is calibrated once per field on the
// first timestep and *reused* across the run — Fig. 10b shows the rate
// curves are consistent over time — while a cheap per-step drift monitor
// (the global mean feature, the same quantity the in situ protocol already
// gathers with one Allreduce) triggers recalibration only when the data
// distribution actually moves.
//
// There is one step driver. A step is: scan the partitions this rank owns →
// one partition-ID-ordered gather of the features → drift check and, when
// due, (re)calibration → one plan on the full feature vector
// (core.Engine.PlanFromFeatures, the only place error bounds are computed)
// → compress the owned partitions → sum the observed bytes across ranks so
// the model-residual tracking is rank-invariant. A Driver built by New owns
// every partition and exchanges nothing — the one-rank world is the
// degenerate case; RunRank (rank.go) runs the same Driver on one rank of
// many and adds only what is its own: shard writer, commit barrier,
// rollback and retry.
//
// Typical use:
//
//	drv, _ := pipeline.New(core.Config{PartitionDim: 16}, pipeline.Options{
//		RelAvgEB: 0.1, Policy: pipeline.DriftTriggered, DriftThreshold: 0.25,
//	})
//	stream, _ := nyx.NewStream(nyx.StreamParams{Base: nyx.Params{N: 64, Seed: 7}, Steps: 16})
//	stats, _ := drv.Run(ctx, stream)
//
// Each step's compressed fields can be appended to an archive v3 stream
// (core.StreamWriter) for O(1) post-hoc access to any timestep.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/optimizer"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Policy selects when the rate model is (re)fitted during a run.
type Policy int

const (
	// DriftTriggered recalibrates a field only when its global mean
	// feature has moved more than DriftThreshold (relative) away from the
	// anchor it was last calibrated at. Default, and the paper-faithful
	// mode: calibration is amortized across the run but cannot go stale.
	DriftTriggered Policy = iota
	// CalibrateOnce fits on the first step only (Fig. 10b's assumption
	// taken at face value).
	CalibrateOnce
	// CalibrateEveryStep re-fits on every step — the per-snapshot cost the
	// streaming design exists to avoid; kept as the quality reference.
	CalibrateEveryStep
)

func (p Policy) String() string {
	switch p {
	case DriftTriggered:
		return "drift-triggered"
	case CalibrateOnce:
		return "calibrate-once"
	case CalibrateEveryStep:
		return "calibrate-every-step"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a Driver.
type Options struct {
	// Policy selects the recalibration schedule (default DriftTriggered).
	Policy Policy
	// DriftThreshold is the relative drift of the global mean feature that
	// triggers recalibration under DriftTriggered. The zero value selects
	// the default (0.25) — it does NOT mean "recalibrate on any movement";
	// for that, use CalibrateEveryStep or a tiny positive threshold.
	DriftThreshold float64
	// RelAvgEB sets each field's quality budget relative to its global
	// mean |value| at first calibration (default 0.1). The budget is
	// resolved once and then held fixed for the whole run, so different
	// recalibration policies compress against identical budgets.
	RelAvgEB float64
	// AvgEBs overrides the budget with an absolute average error bound for
	// specific fields (keys are field names).
	AvgEBs map[string]float64
	// FieldWorkers bounds how many fields are processed concurrently per
	// step (default: min(#fields, GOMAXPROCS)). Partition-level
	// parallelism inside each field is governed by the engine config.
	FieldWorkers int
	// ModelGuardBand bounds the smoothed |ln(observed/predicted)| bit-rate
	// residual the driver tracks per field (EWMA over steps). While the
	// residual stays inside the band, a drift event under DriftTriggered is
	// absorbed by an O(1) rate-model rescale (exp of the EWMA) instead of a
	// full recalibration; a breach schedules a real recalibration at the
	// next drift event. The zero value selects the default (0.25); negative
	// disables corrections entirely — every drift event rescans, the
	// pre-model behavior.
	ModelGuardBand float64
	// Calibration tunes the sampling of (re)calibrations.
	Calibration core.CalibrationOptions
	// Writer, when set, receives every step as an archive v3 stream block.
	// The driver does not close it: the caller owns the footer.
	Writer *core.StreamWriter
	// OnStep, when set, observes each step's stats as the run progresses.
	OnStep func(*StepStats)
}

// budget resolves a field's quality budget from the global mean |value| of
// its first step: the field's absolute entry, else RelAvgEB × mean.
func (o Options) budget(name string, mean float64) (float64, error) {
	if eb, ok := o.AvgEBs[name]; ok {
		return eb, nil
	}
	return o.RelAvgEB * mean, nil
}

func (o Options) withDefaults() Options {
	if o.DriftThreshold == 0 {
		o.DriftThreshold = 0.25
	}
	if o.RelAvgEB == 0 {
		o.RelAvgEB = 0.1
	}
	if o.ModelGuardBand == 0 {
		o.ModelGuardBand = 0.25
	}
	return o
}

// Online-correction tuning. The EWMA weight favors recent steps without
// chasing single-step noise; the correction budget bounds how long the
// error-bound allocation (which a uniform rescale cannot update) may go
// without a real refit; the drift floor routes genuinely regime-changing
// steps straight to recalibration no matter how small the configured
// threshold is.
const (
	residualAlpha     = 0.3
	maxCorrections    = 3
	extremeDriftFloor = 0.5
)

// Validate checks the options. Rejections wrap apierr.ErrBadConfig.
func (o Options) Validate() error {
	if !(o.DriftThreshold >= 0) { // NaN-safe
		return fmt.Errorf("pipeline: %w: drift threshold must be ≥ 0", apierr.ErrBadConfig)
	}
	if !(o.RelAvgEB > 0) || math.IsInf(o.RelAvgEB, 1) {
		return fmt.Errorf("pipeline: %w: RelAvgEB must be positive and finite", apierr.ErrBadConfig)
	}
	for name, eb := range o.AvgEBs {
		if !(eb > 0) || math.IsInf(eb, 1) {
			return fmt.Errorf("pipeline: %w: budget %g for field %q must be positive and finite", apierr.ErrBadConfig, eb, name)
		}
	}
	return nil
}

// FieldStats reports one field of one step.
type FieldStats struct {
	Name string
	// Drift is the relative distance of the step's global mean feature
	// from the calibration anchor, measured before any recalibration.
	Drift float64
	// Recalibrated is set when this step re-fitted the field's rate model.
	Recalibrated bool
	// ModelCorrected is set when a drift event was absorbed by an O(1)
	// rate-model rescale instead of a full recalibration.
	ModelCorrected bool
	// ModelResidual is the field's smoothed |ln(observed/predicted)|
	// bit-rate residual after this step — the quantity held against
	// Options.ModelGuardBand.
	ModelResidual float64
	// AvgEB is the field's (fixed) quality budget.
	AvgEB float64
	// Bytes is the compressed payload size.
	Bytes int
	// Cells is the number of field cells.
	Cells int
	// Ratio and BitRate summarize the compression result.
	Ratio, BitRate float64
	// Per-phase wall times for this field's work.
	CalibrateSeconds, PlanSeconds, CompressSeconds float64
}

// StepStats reports one timestep.
type StepStats struct {
	Step int
	// Fields is sorted by field name.
	Fields []FieldStats
	// Recalibrations counts fields that re-fitted this step.
	Recalibrations int
	// ModelCorrections counts fields whose drift was absorbed by an O(1)
	// model rescale this step.
	ModelCorrections int
	Bytes            int64
	Cells            int64
	// Phase seconds are summed across fields (work, not wall: fields run
	// concurrently), so ratios between phases stay meaningful — the
	// Sec. 4.3 overhead story extended to a run.
	CalibrateSeconds, PlanSeconds, CompressSeconds float64
	// WriteSeconds is the archive append (serialized, true wall time).
	WriteSeconds float64
}

// Ratio is the step's aggregate compression ratio vs fp32.
func (s *StepStats) Ratio() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(4*s.Cells) / float64(s.Bytes)
}

// BitRate is the step's aggregate bits per value.
func (s *StepStats) BitRate() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(8*s.Bytes) / float64(s.Cells)
}

// CompressMBPerSec is the step's compression throughput in uncompressed
// MB/s of field data — the figure to hold against the in situ timestep
// budget (Sec. 4.3). Phase seconds are summed across concurrently
// compressed fields, so this is per-core work throughput, a lower bound on
// wall-clock throughput.
func (s *StepStats) CompressMBPerSec() float64 {
	if s.CompressSeconds == 0 {
		return 0
	}
	return float64(4*s.Cells) / s.CompressSeconds / 1e6
}

// RunStats aggregates a whole run.
type RunStats struct {
	Steps []StepStats
	// Recalibrations counts field recalibrations over the run, including
	// each field's initial fit on its first step.
	Recalibrations int
	// ModelCorrections counts drift events absorbed by O(1) model rescales
	// over the run.
	ModelCorrections                                             int
	Bytes                                                        int64
	Cells                                                        int64
	CalibrateSeconds, PlanSeconds, CompressSeconds, WriteSeconds float64
}

// Ratio is the run's aggregate compression ratio vs fp32.
func (r *RunStats) Ratio() float64 {
	if r.Bytes == 0 {
		return 0
	}
	return float64(4*r.Cells) / float64(r.Bytes)
}

// BitRate is the run's aggregate bits per value.
func (r *RunStats) BitRate() float64 {
	if r.Cells == 0 {
		return 0
	}
	return float64(8*r.Bytes) / float64(r.Cells)
}

// CompressMBPerSec is the run's compression throughput in uncompressed
// MB/s of field data (per-core work throughput; see
// StepStats.CompressMBPerSec).
func (r *RunStats) CompressMBPerSec() float64 {
	if r.CompressSeconds == 0 {
		return 0
	}
	return float64(4*r.Cells) / r.CompressSeconds / 1e6
}

// StepOptions tunes a single step beyond the driver-wide Options.
type StepOptions struct {
	// BudgetScale multiplies every field's resolved error-bound budget for
	// this step only (0 or 1 = unscaled; otherwise positive and finite).
	// The compression service's load controller uses it to step rate
	// targets down under pressure: a larger budget means larger error
	// bounds, fewer bits, and a cheaper request — and back to 1 when
	// pressure clears. The per-field budget resolved at first calibration
	// is stored unscaled, so scaling is stateless across steps.
	BudgetScale float64
}

// StepResult is one compressed snapshot with per-field granularity: every
// field runs to its own outcome, whatever the scheduling, so Step can
// report the name-first failure and one hostile field cannot take the
// others' results with it.
type StepResult struct {
	// Stats is the step's aggregate stats over the fields that succeeded.
	Stats *StepStats
	// Fields holds the compressed output of every field that succeeded.
	Fields map[string]*core.CompressedField
	// Errs maps each failed field to its error. A field absent from both
	// maps was never started (the step was canceled first).
	Errs map[string]error
	// next holds each succeeded field's calibration state after this step,
	// staged until the step commits (Driver.commit).
	next map[string]*fieldState
}

// firstErr returns the first failed field's error in name order (stable
// regardless of completion order), or nil.
func (r *StepResult) firstErr() error {
	if len(r.Errs) == 0 {
		return nil
	}
	names := make([]string, 0, len(r.Errs))
	for name := range r.Errs {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Errorf("pipeline: field %s: %w", names[0], r.Errs[names[0]])
}

// fieldState is the retained per-field calibration state.
type fieldState struct {
	cal *core.Calibration
	// anchor is the global mean feature the model was last fitted (or
	// corrected) at.
	anchor float64
	// avgEB is the budget, resolved at the field's first calibration and
	// fixed thereafter.
	avgEB float64
	// ewma is the smoothed ln(observed/predicted) bit-rate residual;
	// ewmaOK marks it initialized (at least one observation since the last
	// full recalibration).
	ewma   float64
	ewmaOK bool
	// pendingRecal is set when the residual breached the guard band: the
	// next drift event recalibrates for real instead of correcting.
	pendingRecal bool
	// corrections counts O(1) rescales since the last full recalibration.
	corrections int
}

// correctionScale reports whether a drift event can be absorbed by an O(1)
// model rescale and, if so, the multiplicative bit-rate factor (exp of the
// residual EWMA). A correction is refused when the model is on notice
// (guard-band breach), unobserved since its last fit, already at the
// correction budget, or when the drift is extreme — those all need a real
// refit of the allocation shape, which a uniform rescale cannot fix.
func (st *fieldState) correctionScale(drift, threshold float64) (float64, bool) {
	if st.pendingRecal || !st.ewmaOK || st.corrections >= maxCorrections {
		return 0, false
	}
	if drift > math.Max(4*threshold, extremeDriftFloor) {
		return 0, false
	}
	return math.Exp(st.ewma), true
}

// resetModelTracking clears the residual state after a full recalibration.
func (st *fieldState) resetModelTracking() {
	st.ewma, st.ewmaOK, st.pendingRecal, st.corrections = 0, false, false, 0
}

// Driver runs the streaming pipeline. Calibration state persists across
// Run calls, so a driver resumed on a continuation of the same simulation
// keeps its fitted models.
type Driver struct {
	eng *core.Engine
	opt Options

	// comm is nil for a one-rank world, which owns every partition and
	// exchanges nothing. On one rank of many, every rank holds the same
	// state for every field, because every decision below is taken on
	// gathered, rank-invariant quantities.
	comm *mpi.Comm
	// halo holds the per-field halo-mass budgets (RankConfig.Halo).
	halo map[string]*optimizer.HaloConstraint
	// budget resolves a field's budget at its first step, from the gathered
	// global mean: Options.budget for New, RankConfig.budget for RunRank.
	budget func(name string, mean float64) (float64, error)

	mu    sync.Mutex
	state map[string]*fieldState
}

// New builds a driver with its own engine.
func New(engCfg core.Config, opt Options) (*Driver, error) {
	eng, err := core.NewEngine(engCfg)
	if err != nil {
		return nil, err
	}
	return NewWithEngine(eng, opt)
}

// NewWithEngine wraps an existing engine (shared scratch pools included).
func NewWithEngine(eng *core.Engine, opt Options) (*Driver, error) {
	return newDriver(eng, opt, nil, nil, nil)
}

// newDriver is the one constructor. t is this rank's transport, nil for a
// Driver that is its own world (a one-rank transport counts as nil); halo
// and budget default to no halo budgets and opt's budgets.
func newDriver(eng *core.Engine, opt Options, t mpi.Transport, halo map[string]*optimizer.HaloConstraint, budget func(string, float64) (float64, error)) (*Driver, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{eng: eng, opt: opt, halo: halo, budget: budget, state: make(map[string]*fieldState)}
	if t != nil && t.Size() > 1 {
		d.comm = mpi.NewComm(t)
	}
	if d.budget == nil {
		d.budget = opt.budget
	}
	return d, nil
}

// Engine returns the driver's engine.
func (d *Driver) Engine() *core.Engine { return d.eng }

// Calibration returns the current calibration for a field, or nil before
// the field's first step.
func (d *Driver) Calibration(name string) *core.Calibration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.state[name]; ok {
		return st.cal
	}
	return nil
}

// Run consumes the source until io.EOF, compressing every field of every
// step, and returns the per-step stats. On error the run stops and the
// stats collected so far are returned alongside it.
//
// Cancellation: ctx is checked between steps and, inside each step, between
// partitions — a cancel mid-run surfaces as an error satisfying
// errors.Is(err, context.Canceled) within one step, and the configured
// archive writer never sees a partial step, so Close()-ing it still yields
// a valid (truncated) v3 stream covering every completed step.
func (d *Driver) Run(ctx context.Context, src Source) (*RunStats, error) {
	run := &RunStats{}
	for {
		if err := ctx.Err(); err != nil {
			return run, fmt.Errorf("pipeline: run canceled after %d steps: %w", len(run.Steps), err)
		}
		snap, err := src.Next()
		if err == io.EOF {
			return run, nil
		}
		if err != nil {
			return run, fmt.Errorf("pipeline: source: %w", err)
		}
		st, err := d.Step(ctx, snap)
		if err != nil {
			return run, err
		}
		st.Step = len(run.Steps)
		run.Steps = append(run.Steps, *st)
		run.Recalibrations += st.Recalibrations
		run.ModelCorrections += st.ModelCorrections
		run.Bytes += st.Bytes
		run.Cells += st.Cells
		run.CalibrateSeconds += st.CalibrateSeconds
		run.PlanSeconds += st.PlanSeconds
		run.CompressSeconds += st.CompressSeconds
		run.WriteSeconds += st.WriteSeconds
		if d.opt.OnStep != nil {
			d.opt.OnStep(&run.Steps[len(run.Steps)-1])
		}
	}
}

// Step compresses one snapshot's fields (concurrently, bounded by
// FieldWorkers), updates the calibration state, and appends the step to
// the archive writer when one is configured. Any field failing fails the
// whole step; use StepCompressed for per-field error granularity.
func (d *Driver) Step(ctx context.Context, snap map[string]*grid.Field3D) (*StepStats, error) {
	res, err := d.StepCompressed(ctx, snap, StepOptions{})
	if res != nil {
		// A concrete field failure beats the generic cancellation error —
		// it carries the cause (which itself satisfies errors.Is on
		// context.Canceled when the cancel is what failed the field).
		if ferr := res.firstErr(); ferr != nil {
			return nil, ferr
		}
	}
	if err != nil {
		// No partial step ever reaches the archive writer: a canceled step
		// is dropped whole, so the stream stays valid at step granularity.
		return nil, err
	}
	st := res.Stats
	if d.opt.Writer != nil {
		t0 := time.Now()
		if err := d.opt.Writer.WriteStep(res.Fields); err != nil {
			return nil, err
		}
		st.WriteSeconds = time.Since(t0).Seconds()
	}
	return st, nil
}

// StepCompressed compresses one snapshot's fields like Step but returns
// the compressed fields to the caller (nothing is written to the
// configured archive writer) and isolates failures per field: each field
// lands in StepResult.Fields or StepResult.Errs independently. The
// compression service runs each request as a one-field step through it.
// The returned error is non-nil only when the snapshot is empty, the
// budget scale is invalid, or the step was canceled; per-field errors
// never populate it.
func (d *Driver) StepCompressed(ctx context.Context, snap map[string]*grid.Field3D, opt StepOptions) (*StepResult, error) {
	res, err := d.step(ctx, snap, opt)
	if res != nil {
		// Nothing stands between a one-rank world's compression and its
		// commit: every field that succeeded keeps its new state.
		d.commit(res)
	}
	return res, err
}

// commit installs the calibration state a step staged. RunRank calls it
// only after the commit barrier, so an attempt that dies before every rank
// has written leaves no trace — no folded residual, no counted correction,
// no recalibration — and the retry starts from the last committed step's
// state, like a healthy run.
func (d *Driver) commit(res *StepResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, st := range res.next {
		d.state[name] = st
	}
}

// step compresses one snapshot's fields and stages, without installing,
// the calibration state each one leaves behind. In a multi-rank world
// Fields holds this rank's share of each field (core.CompressOwned).
func (d *Driver) step(ctx context.Context, snap map[string]*grid.Field3D, opt StepOptions) (*StepResult, error) {
	if len(snap) == 0 {
		return nil, fmt.Errorf("pipeline: %w: empty snapshot", apierr.ErrBadConfig)
	}
	scale := opt.BudgetScale
	if scale == 0 {
		scale = 1
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("pipeline: %w: budget scale %g is not positive and finite", apierr.ErrBadConfig, scale)
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)

	workers := d.opt.FieldWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	// Every rank must enter the fields' collectives in the same order, so
	// a multi-rank world takes the fields one at a time, in name order, and
	// stops at the first failure: a rank that carried on to the next field
	// would pair its gather with its peers' byte sum.
	fieldCtx, stop := ctx, context.CancelFunc(func() {})
	if d.comm != nil {
		workers = 1
		fieldCtx, stop = context.WithCancel(ctx)
		defer stop()
	}

	st := &StepStats{Fields: make([]FieldStats, len(names))}
	res := &StepResult{
		Stats:  st,
		Fields: make(map[string]*core.CompressedField, len(names)),
		Errs:   make(map[string]error),
		next:   make(map[string]*fieldState, len(names)),
	}
	var mu sync.Mutex // guards res
	// Fields fan out over the shared worker pool (bounded by FieldWorkers
	// and, transitively, GOMAXPROCS): the partition- and block-level
	// fan-outs below draw from the same pool, so a nested run cannot
	// oversubscribe to FieldWorkers × engine workers goroutines.
	parallel.ForEachCtx(fieldCtx, len(names), workers, func(i int) {
		name := names[i]
		cf, fs, next, err := d.compressFieldIsolated(ctx, name, snap[name], scale)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.Errs[name] = err
			st.Fields[i] = FieldStats{Name: name}
			stop()
			return
		}
		st.Fields[i] = *fs
		res.Fields[name] = cf
		res.next[name] = next
	})
	for i := range st.Fields {
		fs := &st.Fields[i]
		st.Bytes += int64(fs.Bytes)
		st.Cells += int64(fs.Cells)
		st.CalibrateSeconds += fs.CalibrateSeconds
		st.PlanSeconds += fs.PlanSeconds
		st.CompressSeconds += fs.CompressSeconds
		if fs.Recalibrated {
			st.Recalibrations++
		}
		if fs.ModelCorrected {
			st.ModelCorrections++
		}
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("pipeline: step canceled: %w", err)
	}
	return res, nil
}

// tagRefitFailure wraps a mid-run recalibration failure in the typed
// drift error so callers can tell a stream that went bad (drift refit
// failed) from a run that never calibrated at all — except when the
// "failure" is just the run's own cancellation surfacing inside
// Calibrate: a clean shutdown must classify as context.Canceled only,
// never as ErrDriftRecalibration.
func tagRefitFailure(name string, drift float64, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &apierr.DriftRecalibrationError{Field: name, Drift: drift, Err: err}
}

// compressFieldIsolated is compressField behind a panic barrier: one
// field's panic (a codec bug detonating on one tenant's data) becomes that
// field's error, exactly like any other per-field failure — the other
// fields of the step never notice. The barrier sits here, at the
// worker-pool boundary, because an unrecovered panic in a pool worker
// would kill the whole process, not just the step. compressField works on
// its own copy of the field's state and takes d.mu only to read it, so
// recovery never strands the lock or leaves the state half-updated.
func (d *Driver) compressFieldIsolated(ctx context.Context, name string, f *grid.Field3D, budgetScale float64) (cf *core.CompressedField, fs *FieldStats, next *fieldState, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		cf, fs, next = nil, nil, nil
		// An error panic value (parallel.PanicError funneling a worker
		// panic, faultinject's scheduled panics) stays in the unwrap chain
		// so chaos tests can classify what detonated.
		if perr, ok := r.(error); ok {
			err = fmt.Errorf("pipeline: field %s: panic during compression: %w", name, perr)
		} else {
			err = fmt.Errorf("pipeline: field %s: panic during compression: %v", name, r)
		}
	}()
	return d.compressField(ctx, name, f, budgetScale)
}

// compressField runs one field through the feature scan and gather, the
// drift check, (re)calibration when due, planning, and compression of the
// owned partitions. budgetScale multiplies the field's resolved budget for
// this step only (see StepOptions.BudgetScale); the stored per-field budget
// stays unscaled. The field's state after the step is returned, not
// installed: the caller decides when the step has committed.
func (d *Driver) compressField(ctx context.Context, name string, f *grid.Field3D, budgetScale float64) (*core.CompressedField, *FieldStats, *fieldState, error) {
	fs := &FieldStats{Name: name, Cells: f.Len()}

	t0 := time.Now()
	owned, err := d.eng.OwnedPartitions(d.comm, f)
	if err != nil {
		return nil, nil, nil, err
	}
	scan, err := d.eng.ScanOwned(ctx, f, owned, d.halo[name])
	if err != nil {
		return nil, nil, nil, err
	}
	features, halo, err := scan.Gather(d.comm)
	if err != nil {
		return nil, nil, nil, err
	}
	mean := stats.MeanOf(features)
	fs.PlanSeconds += time.Since(t0).Seconds()

	state := &fieldState{}
	d.mu.Lock()
	if cur := d.state[name]; cur != nil {
		*state = *cur
	}
	d.mu.Unlock()

	if state.cal != nil && state.anchor > 0 {
		fs.Drift = math.Abs(mean-state.anchor) / state.anchor
	}
	recal := state.cal == nil
	switch d.opt.Policy {
	case CalibrateEveryStep:
		recal = true
	case DriftTriggered:
		recal = recal || fs.Drift > d.opt.DriftThreshold
	}
	if recal && state.cal != nil && d.opt.Policy == DriftTriggered && d.opt.ModelGuardBand >= 0 {
		// Drift event with a healthy model: absorb it with an O(1) rescale
		// of the rate model instead of paying for a rescan.
		if scale, ok := state.correctionScale(fs.Drift, d.opt.DriftThreshold); ok {
			state.cal, state.anchor = state.cal.Rescaled(scale), mean
			state.corrections++
			state.ewma = 0 // the rescale consumed the accumulated residual
			recal = false
			fs.ModelCorrected = true
		}
	}
	if recal {
		refit := state.cal != nil // a re-fit, not the field's first calibration
		t1 := time.Now()
		// Calibration is local and deterministic: every rank fits the same
		// model from the same bytes, so no broadcast is needed and a rank
		// that joined a retry mid-run reaches the same plan.
		cal, err := d.eng.Calibrate(ctx, f, d.opt.Calibration)
		if err != nil {
			if refit {
				err = tagRefitFailure(name, fs.Drift, err)
			}
			return nil, nil, nil, err
		}
		fs.CalibrateSeconds = time.Since(t1).Seconds()
		fs.Recalibrated = true
		state.cal, state.anchor = cal, mean
		state.resetModelTracking()
	}

	if state.avgEB == 0 {
		// mean is the gathered global mean, the same on every rank, so a
		// relative budget needs no further agreement.
		if state.avgEB, err = d.budget(name, mean); err != nil {
			return nil, nil, nil, err
		}
	}
	fs.AvgEB = state.avgEB * budgetScale
	if !(fs.AvgEB > 0) || math.IsInf(fs.AvgEB, 1) {
		return nil, nil, nil, fmt.Errorf("pipeline: field %s resolved budget %g, not positive and finite (mean |value| %g)", name, fs.AvgEB, mean)
	}

	t2 := time.Now()
	plan, err := d.eng.PlanFromFeatures(features, state.cal, core.PlanOptions{AvgEB: fs.AvgEB, Halo: halo})
	if err != nil {
		return nil, nil, nil, err
	}
	fs.PlanSeconds += time.Since(t2).Seconds()

	t3 := time.Now()
	cf, err := d.eng.CompressOwned(ctx, f, plan, owned)
	if err != nil {
		return nil, nil, nil, err
	}
	fs.CompressSeconds = time.Since(t3).Seconds()
	fs.Bytes = cf.CompressedSize()
	if d.comm != nil {
		// Byte counts are integers far below 2^53, so the float64 sum is
		// exact and does not depend on the rank layout.
		total, err := d.comm.Allreduce(float64(fs.Bytes), mpi.OpSum)
		if err != nil {
			return nil, nil, nil, err
		}
		fs.Bytes = int(total)
	}
	fs.Ratio = float64(4*fs.Cells) / float64(fs.Bytes)
	fs.BitRate = float64(fs.Bytes) * 8 / float64(fs.Cells)

	// Fold the step's observed bit rate into the residual EWMA — the free
	// online check that keeps O(1) corrections honest: while predictions
	// track observations the model may rescale through drift; once they
	// diverge past the guard band the next drift event rescans.
	if pred := plan.Predicted.PredictedBitRate; pred > 0 && fs.BitRate > 0 {
		r := math.Log(fs.BitRate / pred)
		if state.ewmaOK {
			state.ewma = (1-residualAlpha)*state.ewma + residualAlpha*r
		} else {
			state.ewma, state.ewmaOK = r, true
		}
		if gb := d.opt.ModelGuardBand; gb >= 0 && math.Abs(state.ewma) > math.Log(1+gb) {
			state.pendingRecal = true
		}
		fs.ModelResidual = math.Abs(state.ewma)
	}
	return cf, fs, state, nil
}
