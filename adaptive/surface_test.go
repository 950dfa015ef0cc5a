package adaptive_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/adaptive"
	"repro/adaptive/codecs"
)

// TestFacadeSurface drives the re-exported toolkit end to end on one
// small synthetic snapshot: generation, file I/O, budgets, the in situ
// protocol, analysis metrics, and the Foresight harness. Together with
// the examples (built and run in CI) this keeps every facade entry point
// exercised.
func TestFacadeSurface(t *testing.T) {
	ctx := context.Background()

	if len(adaptive.FieldNames()) != 6 {
		t.Fatalf("FieldNames: %v", adaptive.FieldNames())
	}

	// Generation + snapshot file round trip.
	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: 32, Seed: 4, Redshift: 42})
	if err != nil {
		t.Fatal(err)
	}
	density, err := snap.Field(adaptive.FieldBaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.nyx")
	if err := adaptive.WriteSnapshotFile(path, &adaptive.SnapshotFile{Redshift: 42, Fields: snap.Fields}); err != nil {
		t.Fatal(err)
	}
	loaded, err := adaptive.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Fields) != len(snap.Fields) {
		t.Fatalf("snapshot file kept %d of %d fields", len(loaded.Fields), len(snap.Fields))
	}
	seq, err := adaptive.GenerateSequence(adaptive.SynthParams{N: 16, Seed: 4}, []float64{54, 42})
	if err != nil || len(seq) != 2 {
		t.Fatalf("GenerateSequence: %v (%d snapshots)", err, len(seq))
	}

	// A system with every engine-side option set.
	sys, err := adaptive.New(
		adaptive.WithPartitionDim(8),
		adaptive.WithWorkers(2),
		adaptive.WithCodec("sz"),
		adaptive.WithMode(codecs.ABS),
		adaptive.WithPredictor(codecs.Lorenzo3D),
		adaptive.WithClampFactor(4),
		adaptive.WithStrategy(adaptive.EqualDerivative),
		adaptive.WithCalibration(adaptive.CalibrationOptions{Partitions: 8, Mode: adaptive.ModelScan}),
		adaptive.WithModelGuardBand(0.25),
		adaptive.WithRelAvgEB(0.1),
		adaptive.WithFieldWorkers(1),
		adaptive.WithRedshift(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Codec() != "sz" || sys.PartitionDim() != 8 {
		t.Fatalf("resolved config: codec %q dim %d", sys.Codec(), sys.PartitionDim())
	}

	// Budgets.
	avgEB, err := adaptive.SpectrumBudget(density, adaptive.BudgetOptions{})
	if err != nil || avgEB <= 0 {
		t.Fatalf("SpectrumBudget: %v (%g)", err, avgEB)
	}
	hcfg := adaptive.DefaultHaloConfig()
	p, err := adaptive.PartitionerForBrickDim(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := adaptive.HaloBudget(density, hcfg, 0.01, 1.0, p)
	if err != nil {
		t.Fatal(err)
	}

	// Features → plan without a second field scan.
	cal, err := sys.Calibrate(ctx, density)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Mode != adaptive.ModelScan && cal.Mode != adaptive.ProbeLadder {
		t.Fatalf("calibration mode %v is neither model-scan nor a recorded fallback", cal.Mode)
	}
	features, err := sys.Features(ctx, density)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: avgEB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adaptive.MassFaultEstimate(hb.TBoundary, hb.RefEB, hb.BoundaryCells, plan.EBs); err != nil {
		t.Fatal(err)
	}

	// In situ protocol: one planner, so any world size returns the bytes
	// of Plan + CompressAdaptive on the same calibration and budget — with
	// the halo budget too, whose boundary cells the ranks' scan counts
	// exactly as HaloBudget did.
	offline, err := sys.CompressAdaptive(ctx, density, plan)
	if err != nil {
		t.Fatal(err)
	}
	lowCfg := hcfg
	lowCfg.BoundaryThreshold = 2 // a threshold whose ±1 band this small field populates
	low, err := adaptive.HaloBudget(density, lowCfg, 0.01, 1.0, p)
	if err != nil {
		t.Fatal(err)
	}
	massFault, err := adaptive.MassFaultEstimate(low.TBoundary, low.RefEB, low.BoundaryCells, plan.EBs)
	if err != nil {
		t.Fatal(err)
	}
	tight := low.HaloConstraint
	tight.MassBudget = massFault / 2 // half the plan's estimate, so the Eq. 11 downscale bites
	haloPlan, err := sys.Plan(ctx, density, cal, adaptive.PlanOptions{AvgEB: avgEB, Halo: &tight})
	if err != nil {
		t.Fatal(err)
	}
	if !haloPlan.Predicted.HaloScaled {
		t.Fatal("halo budget did not bite; the halo comparison below is vacuous")
	}
	offlineHalo, err := sys.CompressAdaptive(ctx, density, haloPlan)
	if err != nil {
		t.Fatal(err)
	}
	var cf *adaptive.CompressedField
	for _, ranks := range []int{1, 3, 4, 64} {
		var st *adaptive.InSituStats
		cf, st, err = sys.CompressInSitu(ctx, density, cal, adaptive.InSituOptions{Ranks: ranks, AvgEB: avgEB})
		if err != nil {
			t.Fatal(err)
		}
		if st.Ranks != ranks || !bytes.Equal(cf.Bytes(), offline.Bytes()) {
			t.Fatalf("in situ over %d ranks (stats say %d) differs from Plan + CompressAdaptive", ranks, st.Ranks)
		}
		withHalo, st, err := sys.CompressInSitu(ctx, density, cal, adaptive.InSituOptions{
			Ranks: ranks, AvgEB: avgEB,
			Halo: &adaptive.HaloConstraint{TBoundary: tight.TBoundary, RefEB: tight.RefEB, MassBudget: tight.MassBudget},
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.HaloScale != haloPlan.Predicted.HaloScale || !bytes.Equal(withHalo.Bytes(), offlineHalo.Bytes()) {
			t.Fatalf("in situ with a halo budget over %d ranks differs from Plan + CompressAdaptive (scale %v vs %v)",
				ranks, st.HaloScale, haloPlan.Predicted.HaloScale)
		}
	}

	// Analysis metrics on the reconstruction.
	recon, err := cf.Decompress(ctx)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := adaptive.ComputeSpectrum(density, adaptive.SpectrumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adaptive.ComputeSpectrum(recon, adaptive.SpectrumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adaptive.SpectrumRatios(orig, rec); err != nil {
		t.Fatal(err)
	}
	dev, err := adaptive.SpectrumMaxDeviation(orig, rec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 0.05 {
		t.Fatalf("spectrum deviation %g implausibly large for the budget bound", dev)
	}
	if adaptive.SigmaFFT3D(32, 0.1) <= 0 {
		t.Fatal("SigmaFFT3D returned a non-positive sigma")
	}
	origCat, err := adaptive.FindHalos(density, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	reconCat, err := adaptive.FindHalos(recon, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	match := adaptive.MatchHalos(origCat, reconCat, 2.0, 32, 32, 32)
	if match.Matched+match.Lost != origCat.Count() {
		t.Fatalf("halo match bookkeeping: %d matched + %d lost != %d halos",
			match.Matched, match.Lost, origCat.Count())
	}

	// Foresight harness + CSV.
	ev := sys.Foresight()
	ebs, err := adaptive.GeometricGrid(avgEB/4, avgEB*4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ev.Sweep(ctx, adaptive.FieldBaryonDensity, density, ebs)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := adaptive.WriteMetricsCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", lines, len(rows))
	}

	// Streaming over the synthetic evolving source, driver state visible.
	stream, err := adaptive.NewSynthStream(adaptive.SynthStreamParams{
		Base:   adaptive.SynthParams{N: 16, Seed: 4},
		Steps:  2,
		Fields: []string{adaptive.FieldBaryonDensity},
	})
	if err != nil {
		t.Fatal(err)
	}
	streamSys := newSystem(t, adaptive.WithPartitionDim(8))
	run, err := streamSys.Run(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Steps) != 2 || run.Ratio() <= 0 {
		t.Fatalf("run: %d steps ratio %g", len(run.Steps), run.Ratio())
	}
	if streamSys.Calibration(adaptive.FieldBaryonDensity) == nil {
		t.Fatal("driver calibration state not visible through the facade")
	}
	if streamSys.Calibration("never-seen") != nil {
		t.Fatal("calibration for an unseen field")
	}
}

// TestSynthStreamFromExternalFields covers the external-fields stream
// constructor the adaptivecfg streaming mode uses.
func TestSynthStreamFromExternalFields(t *testing.T) {
	f := testField(16)
	src, err := adaptive.NewSynthStreamFrom(
		map[string]*adaptive.Field{"rho": f},
		adaptive.SynthStreamParams{Steps: 3, Fields: []string{"rho"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		snap, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if snap["rho"] == nil {
			t.Fatal("step missing the base field")
		}
		n++
	}
	if n != 3 {
		t.Fatalf("stream yielded %d steps, want 3", n)
	}
	if _, err := adaptive.New(adaptive.WithGridN(-1)); !errors.Is(err, adaptive.ErrBadConfig) {
		t.Fatalf("WithGridN(-1): %v", err)
	}
}

// TestExperimentContextRejectsEngineOnlyOptions pins the no-silent-drop
// rule: options an experiment run cannot express must fail loudly
// instead of producing tables for a configuration nobody asked for.
func TestExperimentContextRejectsEngineOnlyOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  adaptive.Option
	}{
		{"WithClampFactor", adaptive.WithClampFactor(8)},
		{"WithStrategy", adaptive.WithStrategy(adaptive.PaperEq16)},
		{"WithPolicy", adaptive.WithPolicy(adaptive.CalibrateEveryStep)},
		{"WithOnStep", adaptive.WithOnStep(func(*adaptive.StepStats) {})},
	} {
		_, err := adaptive.NewExperimentContext(tc.opt)
		if !errors.Is(err, adaptive.ErrBadConfig) {
			t.Errorf("%s silently accepted by NewExperimentContext: %v", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s rejection does not name the option: %v", tc.name, err)
		}
	}
}
