package experiments

import "fmt"

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Result, error)
}

// All lists every experiment in paper order, followed by the ablations.
var All = []Experiment{
	{"fig03", "SZ error distribution is uniform", Fig03ErrorDistribution},
	{"fig04", "FFT error distribution vs model", Fig04FFTErrorDistribution},
	{"fig05", "FFT error variance vs model", Fig05FFTErrorVariance},
	{"fig06", "Halo candidate cells before/after compression", Fig06CandidateCells},
	{"fig07", "Halo mass distribution vs error bound", Fig07HaloMassDistribution},
	{"table1", "Mass difference per changed cell", Table1MassPerChangedCell},
	{"fig08", "Fault-cell estimate vs measurement", Fig08FaultCellEstimate},
	{"fig09", "Per-partition bit-rate curves", Fig09BitrateCurves},
	{"fig10a", "C_m prediction accuracy", Fig10aCmPrediction},
	{"fig10b", "Ratio consistency across snapshots", Fig10bRatioConsistency},
	{"fig11", "Optimized error-bound map", Fig11ErrorBoundMap},
	{"fig12", "Bit-quality ratio equalization", Fig12BitQualityRatio},
	{"fig13", "Power-spectrum preservation", Fig13PowerSpectrum},
	{"fig14", "Effective-cell histogram", Fig14EffectiveCellHistogram},
	{"fig15", "Ratio improvement on all six fields", Fig15RatioAllFields},
	{"fig16", "Improvement across redshifts", Fig16Redshifts},
	{"fig17", "Error-bound maps early vs late", Fig17RedshiftEbMaps},
	{"fig18", "Improvement vs partition size", Fig18PartitionSize},
	{"fig19", "Improvement vs simulation scale", Fig19SimulationScale},
	{"sec43", "In situ overhead", Sec43Overhead},
	{"ablation-clamp", "Ablation: clamp factor", AblationClamp},
	{"ablation-strategy", "Ablation: allocation strategy", AblationStrategy},
	{"ablation-cm", "Ablation: C_m predictor source", AblationCmSource},
	{"ablation-compressor", "Ablation: SZ vs ZFP", AblationCompressor},
	{"codec-adaptive", "Cross-codec adaptive vs static", CrossCodecAdaptive},
	{"timeseries", "Streaming pipeline: recalibration policies over time", TimeseriesPipeline},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}
