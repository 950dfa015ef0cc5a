package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/apierr"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

// BudgetOptions controls how a power-spectrum quality target is converted
// into an average-error-bound budget (the paper's "2σ from Equation 10
// mapped to an acceptable error range", Sec. 4.2).
type BudgetOptions struct {
	// Tolerance is the admissible |P'(k)/P(k) − 1| (paper: 0.01).
	Tolerance float64
	// KMax is the highest wavenumber the band applies to (paper: 10).
	KMax float64
	// Confidence is the two-sided coverage probability (paper: 95.45 %).
	Confidence float64
	// Workers bounds the FFT worker pool.
	Workers int
}

func (o BudgetOptions) withDefaults() BudgetOptions {
	if o.Tolerance == 0 {
		o.Tolerance = 0.01
	}
	if o.KMax == 0 {
		o.KMax = 10
	}
	if o.Confidence == 0 {
		o.Confidence = stats.TwoSigmaConfidence
	}
	return o
}

// SpectrumBudget derives the average error bound that keeps the power
// spectrum of an n³ field within 1 ± Tolerance for k < KMax at the given
// confidence, using the FFT error model (Eqs. 9–10) anchored on a
// reference field's measured spectrum.
//
// Derivation per shell k (component bin error σ, shell amplitude
// A² = mean|F|²): the power error of one bin has a deterministic bias 2σ²
// (mean |E|² over both components) and a random part with standard
// deviation ≈ 2Aσ. Requiring  conf·(2Aσ) + 2σ² ≤ tol·A²  — the paper's
// single-bin mapping, which takes no √count credit for a shell averaging
// many modes — and solving the quadratic for σ gives the shell's
// admissible bin σ; the budget is the most restrictive shell's value,
// inverted through Eq. 9.
func SpectrumBudget(f *grid.Field3D, opt BudgetOptions) (float64, error) {
	opt = opt.withDefaults()
	if f.Nx != f.Ny || f.Ny != f.Nz {
		return 0, fmt.Errorf("core: %w: spectrum budget needs a cubic field, got %s", apierr.ErrBadConfig, f)
	}
	sp, err := spectrum.Compute(f, spectrum.Options{Workers: opt.Workers})
	if err != nil {
		return 0, err
	}
	n := f.Nx
	n3 := float64(n) * float64(n) * float64(n)
	k := stats.ConfidenceFactor(opt.Confidence)
	best := math.Inf(1)
	for shell := 1; shell < sp.Len(); shell++ {
		if sp.K[shell] >= opt.KMax || sp.Counts[shell] == 0 || sp.P[shell] <= 0 {
			continue
		}
		// Convert the normalized shell power back to raw |F| units
		// (BinShells divides |F|² by N⁶).
		a2 := sp.P[shell] * n3 * n3
		a := math.Sqrt(a2)
		// Single-bin mapping: conf·(2Aσ) + 2σ² ≤ tol·A².
		b := 2 * k * a
		sigma := (-b + math.Sqrt(b*b+8*opt.Tolerance*a2)) / 4
		if sigma < best {
			best = sigma
		}
	}
	if math.IsInf(best, 1) {
		return 0, errors.New("core: no populated shells below KMax")
	}
	return model.AverageEBForFFTSigma(n, best), nil
}

// HaloBudget derives the halo constraint for a density field from a
// reference catalog: the admissible total mass distortion for a mass-ratio
// RMSE within 1 ± tol (paper: 0.01).
func HaloBudget(f *grid.Field3D, cfg halo.Config, tol, refEB float64, p *grid.Partitioner) (*HaloBudgetResult, error) {
	if tol <= 0 {
		return nil, fmt.Errorf("core: %w: halo tolerance must be positive", apierr.ErrBadConfig)
	}
	if refEB <= 0 {
		return nil, fmt.Errorf("core: %w: halo reference eb must be positive", apierr.ErrBadConfig)
	}
	cat, err := halo.Find(f, cfg)
	if err != nil {
		return nil, err
	}
	band := grid.HaloBand(cfg.BoundaryThreshold, refEB)
	cells := make([]int, p.Count())
	for i, part := range p.Partitions() {
		_, cells[i] = grid.Scan(f, part, band)
	}
	return &HaloBudgetResult{
		HaloConstraint: optimizer.HaloConstraint{
			TBoundary:     cfg.BoundaryThreshold,
			RefEB:         refEB,
			BoundaryCells: cells,
			MassBudget:    model.MassBudgetFromRMSE(cat.TotalMass(), tol),
		},
		Catalog: cat,
	}, nil
}

// HaloBudgetResult is the optimizer's halo constraint as derived from a
// reference snapshot (hand &r.HaloConstraint to PlanOptions.Halo), plus the
// reference catalog for later comparison.
type HaloBudgetResult struct {
	optimizer.HaloConstraint
	Catalog *halo.Catalog
}
