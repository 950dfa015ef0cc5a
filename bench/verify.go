package main

import (
	"context"
	"fmt"
	"math"

	"repro/adaptive"
)

// boundSlack is the fp32 rounding allowance on top of an error bound, the
// same one the repository's own codec tests use.
const boundSlack = 1 + 1e-5

// checkBounds verifies the product's guarantee on one decoded field: in
// every partition the per-cell max-abs error stays within that partition's
// bound. brick is the partition edge; ebs is in partition-ID order.
func checkBounds(orig, recon *adaptive.Field, brick int, ebs []float64) error {
	if orig.Nx != recon.Nx || orig.Ny != recon.Ny || orig.Nz != recon.Nz {
		return fmt.Errorf("decoded %dx%dx%d, want %dx%dx%d", recon.Nx, recon.Ny, recon.Nz, orig.Nx, orig.Ny, orig.Nz)
	}
	p, err := adaptive.PartitionerForBrickDim(orig.Nx, brick)
	if err != nil {
		return err
	}
	if p.Count() != len(ebs) {
		return fmt.Errorf("%d bounds for %d partitions", len(ebs), p.Count())
	}
	for i, part := range p.Partitions() {
		if ebs[i] <= 0 {
			return fmt.Errorf("partition %d carries no bound", i)
		}
		var worst float64
		for z := part.Z0; z < part.Z1; z++ {
			for y := part.Y0; y < part.Y1; y++ {
				row := orig.Index(part.X0, y, z)
				for k := row; k < row+part.X1-part.X0; k++ {
					if d := math.Abs(float64(orig.Data[k]) - float64(recon.Data[k])); d > worst {
						worst = d
					}
				}
			}
		}
		if worst > ebs[i]*boundSlack || math.IsNaN(worst) {
			return fmt.Errorf("partition %d: max error %g exceeds bound %g", i, worst, ebs[i])
		}
	}
	return nil
}

// spectrumKMax is the paper's band: the power spectrum must hold for k < 10.
const spectrumKMax = 10

// densityBudget derives the density field's average error bound from the
// power-spectrum criterion, as the paper does (Sec. 3.3), at a confidence
// wide enough that no seed lands outside the 1 % band by chance.
func densityBudget(f *adaptive.Field) (float64, error) {
	return adaptive.SpectrumBudget(f, adaptive.BudgetOptions{Confidence: 0.9999})
}

// spectrumDevPct is the paper's post-hoc criterion on a density field:
// max |P'(k)/P(k) − 1| for k below spectrumKMax, in percent.
func spectrumDevPct(orig, recon *adaptive.Field) (float64, error) {
	po, err := adaptive.ComputeSpectrum(orig, adaptive.SpectrumOptions{})
	if err != nil {
		return 0, err
	}
	pr, err := adaptive.ComputeSpectrum(recon, adaptive.SpectrumOptions{})
	if err != nil {
		return 0, err
	}
	dev, err := adaptive.SpectrumMaxDeviation(po, pr, spectrumKMax)
	return 100 * dev, err
}

// checkSpectrum applies the paper's post-hoc criterion to one stored step:
// the density power spectrum of the decoded field stays within 1 % below
// k = 10. The step is a fixed one, so the figure repeats exactly.
func checkSpectrum(ctx context.Context, o *outcome, sr *adaptive.StreamReader, step int, orig *adaptive.Field) {
	o.attempted++
	fields, err := sr.ReadStep(step)
	if err != nil {
		o.fail("read spectrum step %d: %v", step, err)
		return
	}
	recon, err := fields[adaptive.FieldBaryonDensity].Decompress(ctx)
	if err != nil {
		o.fail("decode spectrum step %d: %v", step, err)
		return
	}
	dev, err := spectrumDevPct(orig, recon)
	if err != nil {
		o.fail("spectrum: %v", err)
		return
	}
	o.layer["quality.spectrum_dev_pct"] = dev
	if dev > 1 {
		o.fail("power spectrum deviates %.3f %% below k=%d, the criterion is 1 %%", dev, spectrumKMax)
	}
}

// maxAbsErr is the whole-field max-abs error (fixed-rate ZFP carries no
// per-partition bound to hold it against). Unlike stats.MaxAbsError a NaN
// from the decoder counts as the worst error, not as no error.
func maxAbsErr(a, b *adaptive.Field) float64 {
	if len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}
