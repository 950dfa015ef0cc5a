package repro

// One benchmark per table/figure of the paper's evaluation (Sec. 4), plus
// throughput micro-benchmarks for the substrates. The experiment benches
// run the full reproduction at the canonical 128³ / 512-partition layout
// (the paper's 8×8×8 rank grid), so a single iteration can take seconds to
// minutes; run with -benchtime=1x:
//
//	go test -bench=. -benchtime=1x -benchmem .
//
// The text tables for each figure are printed by cmd/experiments; the
// benches here time their regeneration and assert they still produce rows.

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/huffman"
	"repro/internal/nyx"
	"repro/internal/optimizer"
	"repro/internal/pipeline"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/sz"
	"repro/internal/zfp"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

// benchContext builds the shared canonical-scale context once.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(experiments.Config{
			N: 128, PartitionDim: 16, Seed: 7,
		})
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

// benchExperiment wraps one registered experiment as a benchmark.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	ctx := benchContext(b)
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig03ErrorDistribution(b *testing.B)      { benchExperiment(b, "fig03") }
func BenchmarkFig04FFTErrorDistribution(b *testing.B)   { benchExperiment(b, "fig04") }
func BenchmarkFig05FFTErrorVariance(b *testing.B)       { benchExperiment(b, "fig05") }
func BenchmarkFig06CandidateCells(b *testing.B)         { benchExperiment(b, "fig06") }
func BenchmarkFig07HaloMassDistribution(b *testing.B)   { benchExperiment(b, "fig07") }
func BenchmarkTable1MassPerChangedCell(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig08FaultCellEstimate(b *testing.B)      { benchExperiment(b, "fig08") }
func BenchmarkFig09BitrateCurves(b *testing.B)          { benchExperiment(b, "fig09") }
func BenchmarkFig10aCmPrediction(b *testing.B)          { benchExperiment(b, "fig10a") }
func BenchmarkFig10bRatioConsistency(b *testing.B)      { benchExperiment(b, "fig10b") }
func BenchmarkFig11ErrorBoundMap(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12BitQualityRatio(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13PowerSpectrum(b *testing.B)          { benchExperiment(b, "fig13") }
func BenchmarkFig14EffectiveCellHistogram(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15RatioAllFields(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16Redshifts(b *testing.B)              { benchExperiment(b, "fig16") }
func BenchmarkFig17RedshiftEbMaps(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18PartitionSize(b *testing.B)          { benchExperiment(b, "fig18") }
func BenchmarkFig19SimulationScale(b *testing.B)        { benchExperiment(b, "fig19") }
func BenchmarkSec43Overhead(b *testing.B)               { benchExperiment(b, "sec43") }

// Ablation benches (design-choice studies; see README.md).
func BenchmarkAblationClamp(b *testing.B)             { benchExperiment(b, "ablation-clamp") }
func BenchmarkAblationOptimizationOrder(b *testing.B) { benchExperiment(b, "ablation-strategy") }
func BenchmarkAblationCmSource(b *testing.B)          { benchExperiment(b, "ablation-cm") }

// --- Substrate micro-benchmarks -----------------------------------------

var (
	benchFieldOnce sync.Once
	benchField     *grid.Field3D
	benchFieldErr  error
)

func benchDensity(b *testing.B) *grid.Field3D {
	b.Helper()
	benchFieldOnce.Do(func() {
		s, err := nyx.Generate(nyx.Params{N: 64, Seed: 11, Redshift: 42})
		if err != nil {
			benchFieldErr = err
			return
		}
		benchField, benchFieldErr = s.Field(nyx.FieldBaryonDensity)
	})
	if benchFieldErr != nil {
		b.Fatal(benchFieldErr)
	}
	return benchField
}

func BenchmarkSZCompress(b *testing.B) {
	f := benchDensity(b)
	opt := sz.Options{Mode: sz.ABS, ErrorBound: 0.1}
	b.SetBytes(int64(4 * f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Compress(f, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZDecompress(b *testing.B) {
	f := benchDensity(b)
	c, err := sz.Compress(f, sz.Options{Mode: sz.ABS, ErrorBound: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Decompress(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSZPartition measures SZ on the traffic the paper's method
// produces: every 16³ partition of the 64³ density, each at its planned
// bound, one after another through one reused scratch. A single large brick
// (BenchmarkSZCompress) amortizes per-call costs that are paid 64 times per
// field here, so ns and allocs are reported per partition.
func BenchmarkSZPartition(b *testing.B) {
	f := benchDensity(b)
	eng, err := core.NewEngine(core.Config{PartitionDim: 16})
	if err != nil {
		b.Fatal(err)
	}
	cal, err := eng.Calibrate(context.Background(), f)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := eng.Plan(context.Background(), f, cal, core.PlanOptions{AvgEB: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := grid.PartitionerForBrickDim(f.Nx, 16)
	if err != nil {
		b.Fatal(err)
	}
	parts := p.Partitions()
	bricks := make([][]float32, len(parts))
	for i, part := range parts {
		bricks[i] = grid.Extract(f, part)
	}
	var s sz.Scratch
	compressAll := func() []*sz.Compressed {
		out := make([]*sz.Compressed, len(parts))
		for i, part := range parts {
			nx, ny, nz := part.Dims()
			c, err := sz.CompressSliceWith(bricks[i], nx, ny, nz,
				sz.Options{Mode: sz.ABS, ErrorBound: plan.EBs[i]}, &s)
			if err != nil {
				b.Fatal(err)
			}
			out[i] = c
		}
		return out
	}
	perPartition := func(b *testing.B, run func()) {
		run() // warm the scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			run()
		}
		elapsed := time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * len(parts))
		b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/partition")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/partition")
	}
	b.Run("compress", func(b *testing.B) {
		perPartition(b, func() { compressAll() })
	})
	b.Run("decompress", func(b *testing.B) {
		cs := compressAll()
		perPartition(b, func() {
			for _, c := range cs {
				if _, err := sz.DecompressSlice(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// benchHuffmanStream builds an SZ-shaped token stream at the canonical 64³
// cell count: a sharply peaked Gaussian around the center quantization code
// (the post-Lorenzo residual histogram), sparse outlier markers, and a few
// far-tail codes, which together exercise the first-level LUT and the
// long-code fallback of the table-driven coder.
func benchHuffmanStream() []int {
	r := stats.NewRNG(12)
	sym := make([]int, 1<<18)
	for i := range sym {
		switch {
		case r.Float64() < 0.002:
			sym[i] = 0 // outlier marker
		case r.Float64() < 0.01:
			sym[i] = 32768 + int(r.NormFloat64()*500) // far tail
		default:
			sym[i] = 32768 + int(math.Round(r.NormFloat64()*2))
		}
	}
	return sym
}

func BenchmarkHuffmanEncode(b *testing.B) {
	sym := benchHuffmanStream()
	var s huffman.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(sym)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := huffman.CompressWith(sym, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	sym := benchHuffmanStream()
	enc, err := huffman.Compress(sym)
	if err != nil {
		b.Fatal(err)
	}
	var s huffman.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(sym)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := huffman.DecompressWith(enc, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZFPCompress(b *testing.B) {
	f := benchDensity(b)
	opt := zfp.Options{Rate: 8}
	b.ReportAllocs()
	b.SetBytes(int64(4 * f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zfp.Compress(f, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZFPDecompress(b *testing.B) {
	f := benchDensity(b)
	c, err := zfp.Compress(f, zfp.Options{Rate: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(4 * f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zfp.Decompress(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT3D(b *testing.B) {
	f := benchDensity(b)
	plan, err := fft.NewPlan3D(f.Nx, f.Ny, f.Nz, 0)
	if err != nil {
		b.Fatal(err)
	}
	data := fft.FieldToComplex(f)
	buf := make([]complex128, len(data))
	b.SetBytes(int64(16 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, data)
		if err := plan.Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerSpectrum(b *testing.B) {
	f := benchDensity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.Compute(f, spectrum.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHaloFinder(b *testing.B) {
	f := benchDensity(b)
	bt, pt := nyx.DefaultHaloConfig()
	cfg := halo.Config{BoundaryThreshold: bt, HaloThreshold: pt, Periodic: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halo.Find(f, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	f := benchDensity(b)
	eng, err := core.NewEngine(core.Config{PartitionDim: 16})
	if err != nil {
		b.Fatal(err)
	}
	bt, _ := nyx.DefaultHaloConfig()
	hc := &optimizer.HaloConstraint{TBoundary: bt, RefEB: 1}
	b.SetBytes(int64(4 * f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ScanOwned(context.Background(), f, nil, hc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptivePipeline(b *testing.B) {
	// End-to-end: plan + adaptive compression (calibration excluded, as it
	// is a one-time offline step), once per registered codec. Allocation
	// counts are reported because the per-partition path is pooled
	// (sync.Pool scratch buffers) and must stay that way.
	f := benchDensity(b)
	for _, id := range []codec.ID{codec.SZ, codec.ZFP} {
		b.Run(string(id), func(b *testing.B) {
			eng, err := core.NewEngine(core.Config{PartitionDim: 16, Codec: id})
			if err != nil {
				b.Fatal(err)
			}
			cal, err := eng.Calibrate(context.Background(), f)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(4 * f.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := eng.Plan(context.Background(), f, cal, core.PlanOptions{AvgEB: 0.1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.CompressAdaptive(context.Background(), f, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineStream measures steady-state streaming throughput: a
// pre-materialized evolving run is pushed through the pipeline driver with
// the calibration already fitted (CalibrateOnce + warmup run), so the
// numbers are the amortized per-step cost the in situ deployment pays —
// bytes/op is uncompressed field bytes consumed per run, and steps/sec is
// reported as a custom metric.
func BenchmarkPipelineStream(b *testing.B) {
	stream, err := nyx.NewStream(nyx.StreamParams{
		Base:   nyx.Params{N: 64, Seed: 11, Redshift: 42},
		Steps:  8,
		Fields: []string{nyx.FieldBaryonDensity},
	})
	if err != nil {
		b.Fatal(err)
	}
	var steps []map[string]*grid.Field3D
	for {
		snap, err := stream.Next()
		if err != nil {
			break
		}
		steps = append(steps, snap)
	}
	var cells int64
	for _, s := range steps {
		for _, f := range s {
			cells += int64(f.Len())
		}
	}
	for _, id := range []codec.ID{codec.SZ, codec.ZFP} {
		b.Run(string(id), func(b *testing.B) {
			drv, err := pipeline.New(core.Config{PartitionDim: 16, Codec: id},
				pipeline.Options{Policy: pipeline.CalibrateOnce})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := drv.Run(context.Background(), pipeline.FromSnapshots(steps)); err != nil {
				b.Fatal(err) // warmup: fit the calibration once
			}
			b.ReportAllocs()
			b.SetBytes(4 * cells)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				run, err := drv.Run(context.Background(), pipeline.FromSnapshots(steps))
				if err != nil {
					b.Fatal(err)
				}
				if run.Recalibrations != 0 {
					b.Fatalf("steady state recalibrated %d times", run.Recalibrations)
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*len(steps))/elapsed, "steps/sec")
			}
		})
	}
}

// BenchmarkCalibrate measures one full calibration of the 64³ density
// field per codec — the cost the streaming pipeline pays every time a
// field's rate model is (re)fitted, and the figure the closed-form
// ratio-quality model exists to shrink (ROADMAP item 2).
func BenchmarkCalibrate(b *testing.B) {
	f := benchDensity(b)
	for _, id := range []codec.ID{codec.SZ, codec.ZFP} {
		b.Run(string(id), func(b *testing.B) {
			eng, err := core.NewEngine(core.Config{PartitionDim: 16, Codec: id})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(4 * f.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Calibrate(context.Background(), f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDriftRecalibration measures the steady-state per-step cost of a
// streaming run whose drift monitor fires on essentially every step (the
// evolving source moves ~16 % per step against a near-zero threshold): the
// price of keeping the rate model fresh under continuous drift.
func BenchmarkDriftRecalibration(b *testing.B) {
	stream, err := nyx.NewStream(nyx.StreamParams{
		Base:   nyx.Params{N: 64, Seed: 11, Redshift: 42},
		Steps:  8,
		Fields: []string{nyx.FieldBaryonDensity},
	})
	if err != nil {
		b.Fatal(err)
	}
	var steps []map[string]*grid.Field3D
	for {
		snap, err := stream.Next()
		if err != nil {
			break
		}
		steps = append(steps, snap)
	}
	var cells int64
	for _, s := range steps {
		for _, f := range s {
			cells += int64(f.Len())
		}
	}
	for _, id := range []codec.ID{codec.SZ, codec.ZFP} {
		b.Run(string(id), func(b *testing.B) {
			drv, err := pipeline.New(core.Config{PartitionDim: 16, Codec: id},
				pipeline.Options{Policy: pipeline.DriftTriggered, DriftThreshold: 1e-9})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := drv.Run(context.Background(), pipeline.FromSnapshots(steps)); err != nil {
				b.Fatal(err) // warmup: first calibration fitted
			}
			b.ReportAllocs()
			b.SetBytes(4 * cells)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := drv.Run(context.Background(), pipeline.FromSnapshots(steps)); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*len(steps))/elapsed, "steps/sec")
			}
		})
	}
}

// BenchmarkTimeseriesModelVsProbe runs the same drift-triggered streaming
// workload twice per iteration — once under the default model-scan
// calibration and once under the pre-model probe ladder (corrections
// disabled) — and reports the realized bit rates of both plus their gap in
// percent. The PR 6 acceptance criterion is model_vs_probe_pct within ±1.
func BenchmarkTimeseriesModelVsProbe(b *testing.B) {
	stream, err := nyx.NewStream(nyx.StreamParams{
		Base:   nyx.Params{N: 64, Seed: 11, Redshift: 42},
		Steps:  8,
		Fields: []string{nyx.FieldBaryonDensity},
	})
	if err != nil {
		b.Fatal(err)
	}
	var steps []map[string]*grid.Field3D
	for {
		snap, err := stream.Next()
		if err != nil {
			break
		}
		steps = append(steps, snap)
	}
	configs := []struct {
		name string
		opts pipeline.Options
	}{
		{"model", pipeline.Options{Policy: pipeline.DriftTriggered, DriftThreshold: 0.25}},
		{"probe", pipeline.Options{
			Policy:         pipeline.DriftTriggered,
			DriftThreshold: 0.25,
			ModelGuardBand: -1,
			Calibration:    core.CalibrationOptions{Mode: core.ProbeLadder},
		}},
	}
	for _, id := range []codec.ID{codec.SZ, codec.ZFP} {
		b.Run(string(id), func(b *testing.B) {
			var rates [2]float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, cfg := range configs {
					drv, err := pipeline.New(core.Config{PartitionDim: 16, Codec: id}, cfg.opts)
					if err != nil {
						b.Fatal(err)
					}
					run, err := drv.Run(context.Background(), pipeline.FromSnapshots(steps))
					if err != nil {
						b.Fatal(err)
					}
					rates[j] = run.BitRate()
				}
			}
			b.ReportMetric(rates[0], "model_bits")
			b.ReportMetric(rates[1], "probe_bits")
			b.ReportMetric((rates[0]/rates[1]-1)*100, "model_vs_probe_pct")
		})
	}
}

func BenchmarkNyxGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := nyx.Generate(nyx.Params{N: 64, Seed: uint64(i + 1), Redshift: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCompressor(b *testing.B) { benchExperiment(b, "ablation-compressor") }
func BenchmarkCrossCodecAdaptive(b *testing.B) { benchExperiment(b, "codec-adaptive") }
