// Package optimizer implements the paper's error-bound allocation
// (Sec. 3.6): given the calibrated rate model and per-partition features,
// assign each partition an error bound that maximizes the dataset
// compression ratio subject to a post-analysis quality budget.
//
// For FFT-based quality the budget is an average error bound (Eq. 10 shows
// the power-spectrum distortion depends only on the average), so the
// optimizer solves
//
//	minimize   Σ_m C_m·eb_m^c
//	subject to mean(eb_m) = ebAvg,  eb_m ∈ [ebAvg/k, k·ebAvg]
//
// whose interior optimum equalizes the bit-rate derivative across
// partitions: eb_m ∝ C_m^{1/(1−c)} (the paper's Eq. 16 in the published
// form uses exponent 1/c, which corresponds to the opposite sign convention
// for c; both are available, see Strategy). The box constraint is the
// paper's ×4 / ÷4 guard, and the mean constraint is met exactly by a
// monotone bisection on a global scale factor.
//
// For the halo finder the additional budget is linear in every eb (Eq. 11),
// so a single multiplicative correction enforces it exactly.
package optimizer

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/stats"
)

// Strategy selects the allocation exponent γ in eb_m ∝ (C_m/C_a)^γ.
type Strategy int

const (
	// EqualDerivative uses γ = 1/(1−c), the Lagrangian optimum of the
	// rate model under a mean-eb constraint. Default.
	EqualDerivative Strategy = iota
	// PaperEq16 uses γ = 1/c exactly as printed in the paper's Eq. 16
	// (kept for the ablation; with c < 0 it inverts the allocation).
	PaperEq16
)

func (s Strategy) String() string {
	switch s {
	case EqualDerivative:
		return "equal-derivative"
	case PaperEq16:
		return "paper-eq16"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterizes an allocation.
type Config struct {
	// AvgEB is the quality budget: the mean error bound across partitions.
	AvgEB float64
	// ClampFactor k bounds each eb to [AvgEB/k, k·AvgEB] (paper: 4).
	ClampFactor float64
	// Strategy selects the allocation exponent (default EqualDerivative).
	Strategy Strategy
}

func (c Config) withDefaults() Config {
	if c.ClampFactor == 0 {
		c.ClampFactor = 4
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.AvgEB > 0) || math.IsInf(c.AvgEB, 1) {
		return errors.New("optimizer: AvgEB must be positive and finite")
	}
	if !(c.ClampFactor >= 1) { // NaN-safe
		return fmt.Errorf("optimizer: clamp factor %v must be ≥ 1", c.ClampFactor)
	}
	return nil
}

// Result is one allocation.
type Result struct {
	EBs []float64
	// PredictedBitRate is the rate model's dataset estimate at the
	// allocation.
	PredictedBitRate float64
	// UniformBitRate is the model estimate for the static baseline
	// (every partition at AvgEB); the ratio of the two is the predicted
	// improvement.
	UniformBitRate float64
	// HaloScaled is set when the halo-mass budget forced a downscale.
	HaloScaled bool
	// HaloScale is the factor applied (1 when not scaled).
	HaloScale float64
}

// Allocate assigns per-partition error bounds under an average-eb budget.
func Allocate(rm *model.RateModel, features []float64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := rm.Validate(); err != nil {
		return nil, err
	}
	if len(features) == 0 {
		return nil, errors.New("optimizer: no partitions")
	}
	gamma := allocationExponent(rm.Exponent, cfg.Strategy)

	// C_a anchors the relative allocation at the dataset-average feature,
	// the quantity the paper gathers with one MPI_Allreduce.
	ca := rm.Cm(stats.MeanOf(features))
	if ca <= 0 {
		return nil, fmt.Errorf("optimizer: non-positive anchor coefficient %v", ca)
	}
	raw := make([]float64, len(features))
	for i, f := range features {
		cm := rm.Cm(f)
		raw[i] = cfg.AvgEB * math.Pow(cm/ca, gamma)
	}
	ebs := clampToMean(raw, cfg.AvgEB, cfg.ClampFactor)

	pred, err := rm.DatasetBitRate(features, ebs)
	if err != nil {
		return nil, err
	}
	uniform := make([]float64, len(features))
	for i := range uniform {
		uniform[i] = cfg.AvgEB
	}
	uni, err := rm.DatasetBitRate(features, uniform)
	if err != nil {
		return nil, err
	}
	return &Result{EBs: ebs, PredictedBitRate: pred, UniformBitRate: uni, HaloScale: 1}, nil
}

func allocationExponent(c float64, s Strategy) float64 {
	switch s {
	case PaperEq16:
		return 1 / c
	default:
		return 1 / (1 - c)
	}
}

// clampToMean scales raw bounds by a global factor s and clamps them to
// [avg/k, k·avg] such that the clamped mean equals avg exactly (within
// bisection tolerance). mean(clamp(s·raw)) is nondecreasing in s, so a
// bisection always converges; the box contains avg, so a solution exists.
func clampToMean(raw []float64, avg, k float64) []float64 {
	lo, hi := avg/k, avg*k
	// clamp is one bound at scale s. The explicit conversion rounds the
	// product before it is compared or summed, so no platform fuses it
	// into the mean's additions.
	clamp := func(v, s float64) float64 {
		x := float64(v * s)
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		return x
	}
	// meanAt sums in place, in the order stats.MeanOf would over a
	// clamped copy: the bisection probes 100+ scales and allocates none.
	meanAt := func(s float64) float64 {
		var sum float64
		for _, v := range raw {
			sum += clamp(v, s)
		}
		return sum / float64(len(raw))
	}

	// Bracket the scale: s→0 gives mean=lo ≤ avg; a large s gives hi ≥ avg.
	sLo, sHi := 0.0, 1.0
	for meanAt(sHi) < avg && sHi < 1e12 {
		sHi *= 2
	}
	for iter := 0; iter < 100; iter++ {
		mid := (sLo + sHi) / 2
		if meanAt(mid) < avg {
			sLo = mid
		} else {
			sHi = mid
		}
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = clamp(v, sHi)
	}
	return out
}

// HaloConstraint describes the halo-finder quality budget for a density
// field (Sec. 3.6 second optimization).
type HaloConstraint struct {
	// TBoundary is the halo-finder boundary threshold (t_boundary).
	TBoundary float64
	// RefEB is the error bound the boundary-cell counts were measured at.
	RefEB float64
	// BoundaryCells is the per-partition count of cells within ±RefEB of
	// TBoundary. The step paths (in situ, distributed ranks) measure it in
	// each step's feature scan and do not read a supplied slice; one-shot
	// planning takes it from core.HaloBudget.
	BoundaryCells []int
	// MassBudget is the admissible total absolute halo-mass distortion.
	MassBudget float64
}

// Validate checks the constraint against a partition count.
func (h HaloConstraint) Validate(parts int) error {
	if h.TBoundary <= 0 {
		return errors.New("optimizer: halo boundary threshold must be positive")
	}
	if h.RefEB <= 0 {
		return errors.New("optimizer: halo reference eb must be positive")
	}
	if len(h.BoundaryCells) != parts {
		return fmt.Errorf("optimizer: %d boundary-cell counts for %d partitions",
			len(h.BoundaryCells), parts)
	}
	if h.MassBudget <= 0 {
		return errors.New("optimizer: halo mass budget must be positive")
	}
	return nil
}

// AllocateWithHalo runs the paper's combined strategy: optimize for the
// power spectrum first, then check the halo-mass budget (Eq. 11) and scale
// the whole allocation down if it is violated. The returned result reports
// whether scaling was applied.
func AllocateWithHalo(rm *model.RateModel, features []float64, cfg Config, hc HaloConstraint) (*Result, error) {
	res, err := Allocate(rm, features, cfg)
	if err != nil {
		return nil, err
	}
	if err := hc.Validate(len(features)); err != nil {
		return nil, err
	}
	est, err := model.MassFaultFromBoundaryCells(hc.TBoundary, hc.RefEB, hc.BoundaryCells, res.EBs)
	if err != nil {
		return nil, err
	}
	scale := model.HaloBudgetScale(est, hc.MassBudget)
	if scale < 1 {
		for i := range res.EBs {
			res.EBs[i] *= scale
		}
		res.HaloScaled = true
		res.HaloScale = scale
		res.PredictedBitRate, err = rm.DatasetBitRate(features, res.EBs)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// PredictedImprovement returns the model's predicted compression-ratio
// improvement of the allocation over the uniform baseline, as a fraction
// (0.56 ≡ +56 %). Ratio ∝ 1/bitrate, so the improvement is
// uniform/optimized − 1.
func (r *Result) PredictedImprovement() float64 {
	if r.PredictedBitRate <= 0 {
		return 0
	}
	return r.UniformBitRate/r.PredictedBitRate - 1
}
