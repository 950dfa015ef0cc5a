package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/stats"
)

// Fig09BitrateCurves reproduces Fig. 9: per-partition bit-rate vs
// error-bound curves (16 sampled partitions) are power laws sharing one
// exponent.
func Fig09BitrateCurves(ctx *Context) (*Result, error) {
	cal, err := ctx.Calibration(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "fig09",
		Title: "Bit rate vs error bound per partition (temperature)",
		Cols:  []string{"partition_feature", "fitted_C", "fitted_c", "r2"},
	}
	var exps []float64
	for _, cu := range cal.Curves {
		coeff, exp, r2, err := stats.PowerLawFit(cu.EBs, cu.BitRates)
		if err != nil {
			continue
		}
		exps = append(exps, exp)
		res.AddRow(fnum(cu.Feature), fnum(coeff), fnum(exp), fnum(r2))
	}
	var m stats.Moments
	for _, e := range exps {
		m.Add(e)
	}
	res.Notef("per-curve exponents: mean %.3f, sd %.3f — a shared exponent is justified (paper: 'different partitions ... share the same power parameter c')",
		m.Mean(), m.StdDev())
	res.Notef("calibrated shared exponent: %.3f", cal.Model.Exponent)
	return res, nil
}

// Fig10aCmPrediction reproduces Fig. 10a: C_m predicted from the partition
// mean against the exact per-partition coefficient.
func Fig10aCmPrediction(ctx *Context) (*Result, error) {
	cal, err := ctx.Calibration(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	exact := cal.Model.ExactCms(cal.Curves)
	res := &Result{
		ID:    "fig10a",
		Title: "Predicted C_m (from partition mean) vs exact C_m",
		Cols:  []string{"feature", "exact_C", "predicted_C", "rel_err"},
	}
	var relErr stats.Moments
	for i, cu := range cal.Curves {
		if exact[i] <= 0 {
			continue
		}
		pred := cal.Model.Cm(cu.Feature)
		re := math.Abs(pred-exact[i]) / exact[i]
		relErr.Add(re)
		res.AddRow(fnum(cu.Feature), fnum(exact[i]), fnum(pred), fnum(re))
	}
	res.Notef("mean relative error %.1f%%, fit R² %.3f (paper: 'highly precise')",
		relErr.Mean()*100, cal.Model.FitR2)
	return res, nil
}

// Fig10bRatioConsistency reproduces Fig. 10b: the same configuration yields
// consistent compression ratios on snapshots from different epochs.
func Fig10bRatioConsistency(ctx *Context) (*Result, error) {
	sA, err := ctx.Snapshot(ctx.Cfg.Redshift)
	if err != nil {
		return nil, err
	}
	sB, err := ctx.Snapshot(ctx.Cfg.Redshift + 6) // earlier epoch
	if err != nil {
		return nil, err
	}
	fA, err := sA.Field(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	fB, err := sB.Field(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "fig10b",
		Title: "Compression-ratio consistency across snapshots (temperature)",
		Cols:  []string{"eb", fmt.Sprintf("ratio_z%.0f", ctx.Cfg.Redshift), fmt.Sprintf("ratio_z%.0f", ctx.Cfg.Redshift+6), "rel_diff"},
	}
	worst := 0.0
	for _, rel := range []float64{3e-4, 1e-3, 3e-3, 1e-2} {
		eb := rel * fA.AbsMax()
		cfA, err := ctx.Engine.CompressStatic(context.Background(), fA, eb)
		if err != nil {
			return nil, err
		}
		cfB, err := ctx.Engine.CompressStatic(context.Background(), fB, eb)
		if err != nil {
			return nil, err
		}
		d := math.Abs(cfA.Ratio()-cfB.Ratio()) / cfA.Ratio()
		if d > worst {
			worst = d
		}
		res.AddRow(fnum(eb), fnum(cfA.Ratio()), fnum(cfB.Ratio()), fnum(d))
	}
	res.Notef("worst cross-snapshot ratio difference %.1f%% (paper: 'SZ provides consistent bit-rate to error-bound curves')", worst*100)
	return res, nil
}

// Fig14EffectiveCellHistogram reproduces Fig. 14: the per-partition count
// of effective (boundary) cells is widely dispersed, which is what gives
// the halo-aware allocation room to trade.
func Fig14EffectiveCellHistogram(ctx *Context) (*Result, error) {
	f, err := ctx.Field(nyx.FieldBaryonDensity)
	if err != nil {
		return nil, err
	}
	cfg := ctx.HaloConfig()
	p, err := ctx.Partitioner()
	if err != nil {
		return nil, err
	}
	band := grid.HaloBand(cfg.BoundaryThreshold, 1.0)
	// Log-spaced occupancy histogram.
	buckets := []int{0, 1, 3, 10, 30, 100, 300, 1000, 1 << 30}
	counts := make([]int, len(buckets)-1)
	nonzero := 0
	var mom stats.Moments
	for _, part := range p.Partitions() {
		_, n := grid.Scan(f, part, band)
		mom.Add(float64(n))
		if n > 0 {
			nonzero++
		}
		for b := 0; b < len(buckets)-1; b++ {
			if n >= buckets[b] && n < buckets[b+1] {
				counts[b]++
				break
			}
		}
	}
	res := &Result{
		ID:    "fig14",
		Title: "Histogram of effective (boundary) cells per partition",
		Cols:  []string{"cells_in_partition", "partitions"},
	}
	labels := []string{"0", "1-2", "3-9", "10-29", "30-99", "100-299", "300-999", "1000+"}
	for i, c := range counts {
		res.AddRow(labels[i], fmt.Sprint(c))
	}
	res.Notef("%d of %d partitions contain boundary cells; mean %.1f, max %.0f — a dispersed histogram means feature budget can be traded between partitions (paper Fig. 14)",
		nonzero, p.Count(), mom.Mean(), mom.Max())
	return res, nil
}
