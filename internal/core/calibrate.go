package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/stats"
)

// CalibrationMode selects how Calibrate obtains the bit-rate curves the
// Eq.-15 fit consumes.
type CalibrationMode uint8

const (
	// ModelScan (default) fits the ratio-quality model from one streaming
	// residual scan plus ONE validation compression per sampled partition,
	// then synthesizes the rate curves analytically — the O(samples) path
	// that replaces the probe ladder's O(samples × bounds) compressions.
	// Falls back to ProbeLadder for a field whose cross-sample model
	// residual breaches the guard band (Calibration.FellBack records it).
	ModelScan CalibrationMode = iota
	// ProbeValidated measures the full probe ladder (identical curves and
	// fit to ProbeLadder) and *additionally* runs the feature scan,
	// anchoring the model mid-grid and recording its out-of-sample residual
	// against the measured points — the opt-in mode that keeps the model
	// continuously checked while paying the ladder's cost.
	ProbeValidated
	// ProbeLadder compresses every sampled partition at every grid bound —
	// the original, purely empirical calibration.
	ProbeLadder
)

func (m CalibrationMode) String() string {
	switch m {
	case ModelScan:
		return "model-scan"
	case ProbeValidated:
		return "probe-validated"
	case ProbeLadder:
		return "probe-ladder"
	default:
		return fmt.Sprintf("CalibrationMode(%d)", int(m))
	}
}

// Calibration is a fitted rate model for one field kind. The paper fits the
// shared exponent c once and predicts each partition's coefficient from its
// mean (Sec. 3.5); we calibrate per field kind (density, temperature, ...)
// because absolute value scales differ by orders of magnitude between
// fields, and reuse the calibration across snapshots (Fig. 10b shows rate
// curves are consistent over time).
type Calibration struct {
	Model *model.RateModel
	// Curves are the sampled calibration curves (kept for diagnostics and
	// the Fig. 9/10 experiments). Under ModelScan they are synthesized by
	// the ratio-quality model; otherwise they are measured.
	Curves []model.Curve
	// PartitionIDs[i] is the partition index curve i was sampled from.
	PartitionIDs []int
	// EBs is the error-bound grid the curves were sampled at.
	EBs []float64
	// Mode records how the curves were obtained, after any fallback.
	Mode CalibrationMode
	// RQ[i] is the anchored ratio-quality model of sampled partition
	// PartitionIDs[i] (nil under ProbeLadder and after a fallback).
	RQ []*model.RQModel
	// Residual is the model-consistency metric checked against the guard
	// band: the median |ln(observed/predicted)| bit-rate gap (see
	// sharedResidual for the ModelScan form). Recorded even when the
	// calibration fell back, so callers can log why.
	Residual float64
	// FellBack is set when ModelScan breached the guard band (or the
	// synthetic curves were too degenerate to fit) and the probe ladder
	// was used for this field instead.
	FellBack bool
	// Downgraded is set when the *requested* calibration mode could not be
	// honored at all and another mode was substituted before any curve was
	// sampled — currently: ModelScan under a non-ABS error-bound mode runs
	// the probe ladder, because the residual scan characterizes absolute
	// prediction errors only. Distinct from FellBack, which records a
	// data-driven guard-band fallback of an honored ModelScan request.
	Downgraded bool
	// DowngradeReason says why the requested mode was not honored, for
	// surfacing to clients (the compression service reports it verbatim).
	DowngradeReason string
}

// CalibrationOptions tunes sampling.
type CalibrationOptions struct {
	// Partitions is the number of sampled partitions (default 16),
	// spread evenly across the feature range.
	Partitions int
	// RelEBs is the error-bound grid relative to the field's mean |value|
	// (default {1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1}). Anchoring on the
	// mean rather than the range keeps the grid in the regime where error
	// bounds are actually planned, even for heavy-tailed fields whose
	// range is 10⁵× their mean.
	RelEBs []float64
	// EBs, when non-empty, overrides the relative grid with absolute
	// error bounds.
	EBs []float64
	// Mode selects the calibration path (default ModelScan).
	Mode CalibrationMode
	// GuardBand is the relative tolerance on the model residual before
	// ModelScan falls back to the probe ladder (default 0.25, i.e. a
	// median observed-vs-predicted gap of 25 %).
	GuardBand float64
}

func (o CalibrationOptions) withDefaults() CalibrationOptions {
	if o.Partitions == 0 {
		o.Partitions = 16
	}
	if len(o.RelEBs) == 0 {
		o.RelEBs = []float64{1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1}
	}
	if o.GuardBand == 0 {
		o.GuardBand = 0.25
	}
	return o
}

// residualFloorBits excludes near-floor observations from residual
// metrics: a bit rate at the codec's fixed floor (sz header + run tokens,
// zfp's minimum rate) no longer responds to the error bound, so it carries
// no information about the model's curve — the same reason the Eq.-15 fit
// drops flat curves.
const residualFloorBits = 0.51

// Calibrate fits the rate model for a representative field. This is the
// offline step of the paper's methodology — done once per field kind,
// reused for every snapshot and partition.
//
// Under the default ModelScan mode each sampled partition costs one
// streaming residual scan plus a single validation compression; the rate
// curves are synthesized by the ratio-quality model (arXiv 2111.09815) and
// cross-checked against the validation points, falling back to the probe
// ladder when the check breaches CalibrationOptions.GuardBand. ProbeLadder
// restores the original measure-everything behavior; ProbeValidated does
// both and reports the model's out-of-sample residual. Cancellation is
// checked between sample compressions.
func (e *Engine) Calibrate(ctx context.Context, f *grid.Field3D, opts ...CalibrationOptions) (*Calibration, error) {
	var o CalibrationOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()

	p, err := e.partitioner(f)
	if err != nil {
		return nil, err
	}
	features, err := e.Features(ctx, f)
	if err != nil {
		return nil, fmt.Errorf("core: calibration: %w", err)
	}
	lo, hi := f.MinMax()
	if hi <= lo {
		return nil, fmt.Errorf("core: %w: cannot calibrate on a constant field", apierr.ErrBadConfig)
	}
	var ebs []float64
	if len(o.EBs) > 0 {
		ebs = append([]float64(nil), o.EBs...)
	} else {
		anchor := stats.MeanOf(features) // dataset mean |value|
		if anchor <= 0 {
			return nil, errors.New("core: zero mean |value|; cannot anchor calibration grid")
		}
		ebs = make([]float64, len(o.RelEBs))
		for i, rel := range o.RelEBs {
			ebs[i] = rel * anchor
		}
	}
	for _, eb := range ebs {
		if eb <= 0 {
			return nil, fmt.Errorf("core: %w: non-positive calibration eb %v", apierr.ErrBadConfig, eb)
		}
	}

	samples := pickSamples(features, o.Partitions)
	if len(samples) < 2 {
		return nil, fmt.Errorf("core: %w: need at least 2 distinct sample partitions to calibrate (got %d)",
			apierr.ErrBadConfig, len(samples))
	}

	scratch := e.getScratch()
	defer e.putScratch(scratch)

	mode := o.Mode
	var downgradeReason string
	if mode == ModelScan && e.cfg.Mode != codec.ABS {
		// The residual scan characterizes absolute prediction errors; PWREL
		// compresses log-transformed values, so measure instead of model.
		// The substitution is recorded on the Calibration (Downgraded +
		// DowngradeReason) so callers — the service's calibrate endpoint in
		// particular — can see why ModelScan was not honored.
		mode = ProbeLadder
		downgradeReason = fmt.Sprintf(
			"%s error-bound mode: the residual scan models ABS errors only, so the probe ladder was measured instead",
			e.cfg.Mode)
	}
	var fellBack bool
	var residual float64
	switch mode {
	case ProbeValidated:
		return e.probeValidated(ctx, f, p, features, samples, ebs, scratch)
	case ModelScan:
		cal, res, err := e.modelScanCalibration(ctx, f, p, features, samples, ebs, o.GuardBand, scratch)
		if err != nil {
			return nil, err
		}
		if cal != nil {
			return cal, nil
		}
		fellBack, residual = true, res
	}
	cal, err := e.probeCalibration(ctx, f, p, features, samples, ebs, scratch)
	if err != nil {
		return nil, err
	}
	cal.FellBack = fellBack
	cal.Residual = residual
	if downgradeReason != "" {
		cal.Downgraded = true
		cal.DowngradeReason = downgradeReason
	}
	return cal, nil
}

// pickSamples selects the calibration sample partitions: evenly spaced
// feature quantiles (so the C_m-vs-feature fit sees the whole
// compressibility range) merged with the top partitions by feature
// (heavy-tailed fields concentrate all rate information there), then
// de-duplicated preserving order.
func pickSamples(features []float64, want int) []int {
	idx := make([]int, len(features))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return features[idx[a]] < features[idx[b]] })
	nSamp := want
	if nSamp > len(idx) {
		nSamp = len(idx)
	}
	samples := make([]int, 0, nSamp+4)
	if nSamp <= 1 {
		// A single quantile is the median — indexing directly instead of
		// spacing by (nSamp−1), which divides by zero here.
		samples = append(samples, idx[len(idx)/2])
	} else {
		for i := 0; i < nSamp; i++ {
			samples = append(samples, idx[i*(len(idx)-1)/(nSamp-1)])
		}
	}
	topK := nSamp / 2
	if topK < 4 {
		topK = 4
	}
	for i := 0; i < topK && i < len(idx); i++ {
		samples = append(samples, idx[len(idx)-1-i])
	}
	// De-duplicate while preserving order (quantiles collide on small
	// partition counts, and the top-K overlaps the upper quantiles).
	seen := make(map[int]bool, len(samples))
	uniq := samples[:0]
	for _, s := range samples {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	return uniq
}

// probeCalibration measures one bit-rate curve per sample by compressing
// at every grid bound — the original probe ladder, and the fallback path.
// The curves are sampled through the engine's configured codec, so the
// fitted rate model describes the backend that will actually compress.
func (e *Engine) probeCalibration(ctx context.Context, f *grid.Field3D, p *grid.Partitioner,
	features []float64, samples []int, ebs []float64, scratch *codec.Scratch) (*Calibration, error) {
	parts := p.Partitions()
	curves := make([]model.Curve, 0, len(samples))
	ids := make([]int, 0, len(samples))
	for _, pi := range samples {
		part := parts[pi]
		data := e.brick(scratch, f, part)
		nx, ny, nz := part.Dims()
		cu := model.Curve{Feature: features[pi], EBs: ebs}
		rates := make([]float64, len(ebs))
		for j, eb := range ebs {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: calibration: %w", err)
			}
			c, err := codec.CompressCtx(ctx, e.cdc, data, nx, ny, nz, e.codecOptions(eb), scratch)
			if err != nil {
				return nil, fmt.Errorf("core: calibration compress (partition %d, eb %g): %w", pi, eb, err)
			}
			rates[j] = c.BitRate()
		}
		cu.BitRates = rates
		curves = append(curves, cu)
		ids = append(ids, pi)
	}
	rm, err := model.Calibrate(curves)
	if err != nil {
		return nil, fmt.Errorf("core: rate-model fit: %w", err)
	}
	return &Calibration{Model: rm, Curves: curves, PartitionIDs: ids, EBs: ebs, Mode: ProbeLadder}, nil
}

// modelScanCalibration is the ModelScan path: one residual scan and one
// validation compression per sample, synthetic curves, Eq.-15 fit. A nil
// Calibration (with nil error) means the guard band was breached — or the
// synthetic curves were degenerate — and the caller should fall back to
// the probe ladder; the returned residual documents the breach.
func (e *Engine) modelScanCalibration(ctx context.Context, f *grid.Field3D, p *grid.Partitioner,
	features []float64, samples []int, ebs []float64, guard float64, scratch *codec.Scratch) (*Calibration, float64, error) {
	parts := p.Partitions()
	anchorEB := ebs[len(ebs)/2]
	rqs := make([]*model.RQModel, 0, len(samples))
	obs := make([]float64, 0, len(samples))
	var scan stats.PredScan
	for _, pi := range samples {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("core: calibration: %w", err)
		}
		part := parts[pi]
		data := e.brick(scratch, f, part)
		nx, ny, nz := part.Dims()
		rq, err := e.scanModel(data, nx, ny, nz, &scan)
		if err != nil {
			return nil, 0, err
		}
		c, err := codec.CompressCtx(ctx, e.cdc, data, nx, ny, nz, e.codecOptions(anchorEB), scratch)
		if err != nil {
			return nil, 0, fmt.Errorf("core: calibration compress (partition %d, eb %g): %w", pi, anchorEB, err)
		}
		rqs = append(rqs, rq)
		obs = append(obs, c.BitRate())
	}
	res := sharedResidual(rqs, obs, anchorEB)
	for i, rq := range rqs {
		rq.Anchor(anchorEB, obs[i])
	}
	if res > math.Log(1+guard) {
		return nil, res, nil
	}
	curves := make([]model.Curve, len(rqs))
	for i, rq := range rqs {
		curves[i] = rq.Curve(features[samples[i]], ebs)
	}
	rm, err := model.Calibrate(curves)
	if err != nil {
		return nil, res, nil
	}
	return &Calibration{
		Model: rm, Curves: curves,
		PartitionIDs: append([]int(nil), samples...),
		EBs:          ebs,
		Mode:         ModelScan,
		RQ:           rqs,
		Residual:     res,
	}, res, nil
}

// probeValidated measures the ladder exactly like probeCalibration and
// additionally scans each sample, anchoring its ratio-quality model at the
// mid-grid measured point and scoring the model against every *other*
// measured point — a true out-of-sample residual, recorded for online
// monitoring.
func (e *Engine) probeValidated(ctx context.Context, f *grid.Field3D, p *grid.Partitioner,
	features []float64, samples []int, ebs []float64, scratch *codec.Scratch) (*Calibration, error) {
	cal, err := e.probeCalibration(ctx, f, p, features, samples, ebs, scratch)
	if err != nil {
		return nil, err
	}
	parts := p.Partitions()
	mid := len(ebs) / 2
	var scan stats.PredScan
	rqs := make([]*model.RQModel, len(cal.PartitionIDs))
	var rs []float64
	for i, pi := range cal.PartitionIDs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: calibration: %w", err)
		}
		part := parts[pi]
		data := e.brick(scratch, f, part)
		nx, ny, nz := part.Dims()
		rq, err := e.scanModel(data, nx, ny, nz, &scan)
		if err != nil {
			return nil, err
		}
		rates := cal.Curves[i].BitRates
		rq.Anchor(ebs[mid], rates[mid])
		rqs[i] = rq
		for j := range ebs {
			if j == mid || rates[j] < residualFloorBits {
				continue
			}
			rs = append(rs, rq.LogResidual(ebs[j], rates[j]))
		}
	}
	cal.Mode = ProbeValidated
	cal.RQ = rqs
	cal.Residual = medianOf(rs)
	return cal, nil
}

// scanModel builds an unanchored ratio-quality model for one brick from a
// single streaming pass (the "one feature scan").
func (e *Engine) scanModel(data []float32, nx, ny, nz int, ps *stats.PredScan) (*model.RQModel, error) {
	ps.Reset()
	if err := codec.ScanResiduals(data, nx, ny, nz, ps); err != nil {
		return nil, err
	}
	rq := &model.RQModel{
		Kind:       model.RQPrediction,
		N:          len(data),
		ValueRange: ps.Values.Range(),
		HeaderBits: codec.SZHeaderBits,
	}
	if e.cfg.Codec == codec.ZFP {
		rq.Kind = model.RQTransform
	} else {
		rq.Dist = ps.Errs.Clone()
	}
	return rq, nil
}

// sharedResidual measures cross-sample model consistency from the one
// validation compression each sample got: a sound scan model is off from
// the observation by a single codec-wide constant (Huffman-vs-entropy gap,
// table overhead — multiplicative for prediction codecs, additive for
// transform codecs), so every sample's anchor implies the *same*
// correction. The residual is the median |ln| distance of each sample's
// implied correction from the shared (median) one — zero for a perfect
// model regardless of the constant's size, and computable without a second
// compression per sample. Near-floor observations are excluded (see
// residualFloorBits).
func sharedResidual(rqs []*model.RQModel, obs []float64, anchorEB float64) float64 {
	type point struct{ prior, obs float64 }
	pts := make([]point, 0, len(rqs))
	transform := len(rqs) > 0 && rqs[0].Kind == model.RQTransform
	for i, rq := range rqs {
		if obs[i] < residualFloorBits {
			continue
		}
		pts = append(pts, point{rq.PriorBitRate(anchorEB), obs[i]})
	}
	if len(pts) == 0 {
		return 0
	}
	rs := make([]float64, 0, len(pts))
	if transform {
		offs := make([]float64, len(pts))
		for i, pt := range pts {
			offs[i] = pt.obs - pt.prior
		}
		med := medianOf(offs)
		for _, pt := range pts {
			pred := pt.prior + med
			if pred <= 0 {
				rs = append(rs, math.Inf(1))
				continue
			}
			rs = append(rs, math.Abs(math.Log(pt.obs/pred)))
		}
	} else {
		ls := make([]float64, len(pts))
		for i, pt := range pts {
			if pt.prior <= 0 {
				continue // prior floor: no shape information
			}
			ls[i] = math.Log(pt.obs / pt.prior)
		}
		med := medianOf(ls)
		for _, l := range ls {
			rs = append(rs, math.Abs(l-med))
		}
	}
	return medianOf(rs)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// Rescaled returns a copy of the calibration whose rate model predicts
// factor× the bit rate everywhere. C_m is affine in (Alpha, Beta) and
// floored at MinC, so scaling all three scales every prediction uniformly —
// which leaves the budget-normalized error-bound allocation unchanged and
// only corrects the predicted rates. This is the O(1) online correction the
// pipeline applies when the observed/predicted rate ratio drifts.
func (c *Calibration) Rescaled(factor float64) *Calibration {
	if c == nil || c.Model == nil || factor <= 0 || factor == 1 {
		return c
	}
	m := *c.Model
	m.Alpha *= factor
	m.Beta *= factor
	m.MinC *= factor
	cp := *c
	cp.Model = &m
	return &cp
}

// SuggestStaticEB inverts the rate model for the static baseline: the
// uniform bound that the model predicts hits the same average bit rate as
// a given adaptive plan (used by equal-rate comparisons).
func (c *Calibration) SuggestStaticEB(features []float64, targetBitRate float64) (float64, error) {
	if c == nil || c.Model == nil {
		return 0, fmt.Errorf("core: %w: nil calibration", apierr.ErrBadConfig)
	}
	if targetBitRate <= 0 {
		return 0, fmt.Errorf("core: %w: target bit rate must be positive", apierr.ErrBadConfig)
	}
	// Bisection on eb: dataset bit rate is monotone decreasing in eb.
	lo, hi := 1e-12, 1e12
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric, spans decades
		uniform := make([]float64, len(features))
		for j := range uniform {
			uniform[j] = mid
		}
		br, err := c.Model.DatasetBitRate(features, uniform)
		if err != nil {
			return 0, err
		}
		if br > targetBitRate {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}
