package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/foresight"
	"repro/internal/nyx"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

// Fig11ErrorBoundMap reproduces Fig. 11: the per-partition optimized error
// bounds for the temperature field (printed as summary statistics and a
// coarse z-slab map rather than a rendered image).
func Fig11ErrorBoundMap(ctx *Context) (*Result, error) {
	f, err := ctx.Field(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	cal, err := ctx.Calibration(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	avgEB, err := core.SpectrumBudget(f, core.BudgetOptions{Workers: ctx.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	plan, err := ctx.Engine.Plan(context.Background(), f, cal, core.PlanOptions{AvgEB: avgEB})
	if err != nil {
		return nil, err
	}
	var m stats.Moments
	for _, eb := range plan.EBs {
		m.Add(eb)
	}
	res := &Result{
		ID:    "fig11",
		Title: "Optimized per-partition error bounds (temperature)",
		Cols:  []string{"statistic", "value"},
	}
	res.AddRow("partitions", fmt.Sprint(len(plan.EBs)))
	res.AddRow("budget avg eb", fnum(avgEB))
	res.AddRow("assigned mean", fnum(m.Mean()))
	res.AddRow("assigned min", fnum(m.Min()))
	res.AddRow("assigned max", fnum(m.Max()))
	res.AddRow("spread (max/min)", fnum(m.Max()/math.Max(m.Min(), 1e-300)))
	res.AddRow("at lower clamp", fmt.Sprint(countNear(plan.EBs, avgEB/4)))
	res.AddRow("at upper clamp", fmt.Sprint(countNear(plan.EBs, avgEB*4)))
	res.Notef("partitions receive individual bounds spanning the clamp box instead of one static value (paper Fig. 11)")
	return res, nil
}

func countNear(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if math.Abs(x-v) < 1e-9*v {
			n++
		}
	}
	return n
}

// Fig12BitQualityRatio reproduces Fig. 12: the per-partition bit-quality
// derivative |db/deb| is widely dispersed under the traditional static
// configuration and near-constant after optimization.
func Fig12BitQualityRatio(ctx *Context) (*Result, error) {
	f, err := ctx.Field(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	cal, err := ctx.Calibration(nyx.FieldTemperature)
	if err != nil {
		return nil, err
	}
	avgEB, err := core.SpectrumBudget(f, core.BudgetOptions{Workers: ctx.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	plan, err := ctx.Engine.Plan(context.Background(), f, cal, core.PlanOptions{AvgEB: avgEB})
	if err != nil {
		return nil, err
	}
	rm := cal.Model
	deriv := func(feature, eb float64) float64 {
		// |db/deb| = |c|·C_m·eb^{c−1}
		return math.Abs(rm.Exponent) * rm.Cm(feature) * math.Pow(eb, rm.Exponent-1)
	}
	var trad, opt stats.Moments
	for i, ft := range plan.Features {
		trad.Add(deriv(ft, avgEB))
		opt.Add(deriv(ft, plan.EBs[i]))
	}
	res := &Result{
		ID:    "fig12",
		Title: "Bit-quality derivative dispersion: traditional vs optimized",
		Cols:  []string{"configuration", "mean|db/deb|", "sd", "sd/mean"},
	}
	res.AddRow("traditional (static)", fnum(trad.Mean()), fnum(trad.StdDev()), fnum(trad.StdDev()/trad.Mean()))
	res.AddRow("optimized (adaptive)", fnum(opt.Mean()), fnum(opt.StdDev()), fnum(opt.StdDev()/opt.Mean()))
	res.Notef("optimization equalizes the derivative across partitions — clamped partitions retain residual spread (paper Fig. 12)")
	return res, nil
}

// Fig13PowerSpectrum reproduces Fig. 13: P'(k)/P(k) of the adaptive
// configuration stays within the ±1 % band for k < 10.
func Fig13PowerSpectrum(ctx *Context) (*Result, error) {
	f, err := ctx.Field(nyx.FieldBaryonDensity)
	if err != nil {
		return nil, err
	}
	cal, err := ctx.Calibration(nyx.FieldBaryonDensity)
	if err != nil {
		return nil, err
	}
	avgEB, err := core.SpectrumBudget(f, core.BudgetOptions{Workers: ctx.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	plan, err := ctx.Engine.Plan(context.Background(), f, cal, core.PlanOptions{AvgEB: avgEB})
	if err != nil {
		return nil, err
	}
	cf, err := ctx.Engine.CompressAdaptive(context.Background(), f, plan)
	if err != nil {
		return nil, err
	}
	recon, err := cf.Decompress(context.Background())
	if err != nil {
		return nil, err
	}
	orig, err := spectrum.Compute(f, spectrum.Options{Workers: ctx.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	rec, err := spectrum.Compute(recon, spectrum.Options{Workers: ctx.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	ratios, err := spectrum.Ratio(orig, rec)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "fig13",
		Title: "Power spectrum ratio P'(k)/P(k), adaptive configuration (baryon density)",
		Cols:  []string{"k", "ratio", "within ±1%"},
	}
	for k := 1; k < len(ratios) && orig.K[k] < 12; k++ {
		if orig.Counts[k] == 0 {
			continue
		}
		ok := math.Abs(ratios[k]-1) <= 0.01
		res.AddRow(fnum(orig.K[k]), fnum(ratios[k]), fmt.Sprint(ok))
	}
	dev, err := spectrum.MaxDeviation(orig, rec, 10)
	if err != nil {
		return nil, err
	}
	res.Notef("max |ratio − 1| for k<10: %.4f (target ≤ 0.01); compression ratio %.1f at avg eb %.3g",
		dev, cf.Ratio(), avgEB)
	return res, nil
}

// Fig15RatioAllFields reproduces Fig. 15: compression-ratio improvement of
// the adaptive method over the traditional static method on all six fields,
// at matched post-analysis quality.
func Fig15RatioAllFields(ctx *Context) (*Result, error) {
	res := &Result{
		ID:    "fig15",
		Title: "Compression ratio: adaptive vs traditional, all six fields",
		Cols: []string{"field", "traditional_eb", "traditional_ratio",
			"adaptive_avg_eb", "adaptive_ratio", "adaptive_quality_ok", "improvement"},
	}
	var improvements []float64
	for _, name := range nyx.FieldNames {
		f, err := ctx.Field(name)
		if err != nil {
			return nil, err
		}
		cal, err := ctx.Calibration(name)
		if err != nil {
			return nil, err
		}
		budget, err := core.SpectrumBudget(f, core.BudgetOptions{Workers: ctx.Cfg.Workers})
		if err != nil {
			return nil, err
		}
		// Traditional method: trial-and-error over a geometric grid,
		// deploying one safety notch below the knee — the paper's "users
		// usually choose a relatively lower error-bound ... based on
		// empirical studies", since one tested snapshot cannot vouch for
		// the whole run. The grid spans from the (conservative) model
		// budget up to well past the empirical knee.
		ev := &foresight.Evaluator{Engine: ctx.Engine, Workers: ctx.Cfg.Workers}
		gridEBs, err := foresight.GeometricGrid(budget/8, budget*512, 16)
		if err != nil {
			return nil, err
		}
		te, err := ev.TrialAndError(context.Background(), name, f, gridEBs, 1)
		if err != nil {
			return nil, err
		}
		static, err := ctx.Engine.CompressStatic(context.Background(), f, te.ChosenEB)
		if err != nil {
			return nil, err
		}
		// Adaptive method: Eq. 10 says the FFT quality depends only on
		// the average bound, so the adaptive plan runs at the knee itself
		// — the accurate error-bound estimation the paper credits for the
		// velocity-field gains — and spreads the budget per partition.
		// Baryon density additionally carries the halo-finder budget
		// (Sec. 3.6's combined strategy). Because the uniform-error model
		// is mildly optimistic for heavy-tailed fields (error concentrates
		// in the partitions whose structure carries the spectrum), the
		// plan is verified and derated until the empirical band holds.
		planOpts := core.PlanOptions{AvgEB: te.BestPassingEB}
		if name == nyx.FieldBaryonDensity {
			p, err := ctx.Partitioner()
			if err != nil {
				return nil, err
			}
			hb, err := core.HaloBudget(f, ctx.HaloConfig(), 0.01, 1.0, p)
			if err != nil {
				return nil, err
			}
			if hb.MassBudget > 0 {
				planOpts.Halo = &hb.HaloConstraint
			}
		}
		var adaptive *core.CompressedField
		var m *foresight.Metrics
		avgEB := planOpts.AvgEB
		for attempt := 0; attempt < 10; attempt++ {
			planOpts.AvgEB = avgEB
			plan, err := ctx.Engine.Plan(context.Background(), f, cal, planOpts)
			if err != nil {
				return nil, err
			}
			adaptive, err = ctx.Engine.CompressAdaptive(context.Background(), f, plan)
			if err != nil {
				return nil, err
			}
			m, err = ev.Evaluate(context.Background(), name, f, adaptive)
			if err != nil {
				return nil, err
			}
			if m.SpectrumOK {
				break
			}
			avgEB *= 0.9
		}
		imp := adaptive.Ratio()/static.Ratio() - 1
		improvements = append(improvements, imp)
		res.AddRow(name, fnum(te.ChosenEB), fnum(static.Ratio()),
			fnum(avgEB), fnum(adaptive.Ratio()), fmt.Sprint(m.QualityOK()),
			fmt.Sprintf("%+.1f%%", imp*100))
	}
	res.Notef("average improvement %+.1f%% (paper: 56.0%% average, up to 73%%)",
		stats.MeanOf(improvements)*100)
	res.Notef("traditional = one safety notch below the trial-and-error knee; adaptive = per-partition bounds averaging to the knee (same modeled quality, verified empirically in adaptive_quality_ok)")
	return res, nil
}
