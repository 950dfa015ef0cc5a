package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/parallel"
)

// testSteps materializes an evolving run so tests can compare against the
// originals after decoding the stream archive.
func testSteps(t *testing.T, n, steps int, fields ...string) []map[string]*grid.Field3D {
	t.Helper()
	st, err := nyx.NewStream(nyx.StreamParams{
		Base:   nyx.Params{N: n, Seed: 7, Redshift: 42},
		Steps:  steps,
		Fields: fields,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]*grid.Field3D
	for {
		snap, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, snap)
	}
}

// TestPipelineStreamSZ is the end-to-end tentpole test: an 8-step two-field
// evolving run through the sz backend, streamed into an archive v3
// container, with drift-triggered recalibration.
func TestPipelineStreamSZ(t *testing.T) {
	steps := testSteps(t, 32, 8, nyx.FieldBaryonDensity, nyx.FieldVelocityX)

	var buf bytes.Buffer
	sw, err := core.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := New(core.Config{PartitionDim: 8}, Options{
		Policy:         DriftTriggered,
		DriftThreshold: 0.25,
		RelAvgEB:       0.1,
		Writer:         sw,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(context.Background(), FromSnapshots(steps))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	if len(run.Steps) != 8 {
		t.Fatalf("run has %d steps, want 8", len(run.Steps))
	}
	if run.Ratio() <= 1 {
		t.Errorf("run ratio %.2f, want > 1", run.Ratio())
	}
	// The density field drifts ~16 % per step: with a 25 % threshold the
	// run must react after the initial fits (drift is real) but far less
	// than once per field per step (calibration is amortized). Drift events
	// with a healthy model are absorbed by O(1) rescales, so the reaction
	// count is recalibrations plus corrections.
	if reacted := run.Recalibrations + run.ModelCorrections; reacted <= 2 {
		t.Errorf("%d recalibrations + %d corrections; drift never triggered",
			run.Recalibrations, run.ModelCorrections)
	}
	if run.ModelCorrections == 0 {
		t.Error("no drift event was absorbed by an O(1) model correction")
	}
	if run.Recalibrations >= 16 {
		t.Errorf("%d recalibrations for 16 field-steps; nothing was reused", run.Recalibrations)
	}
	// Step 0 calibrates both fields; later steps only on drift.
	if got := run.Steps[0].Recalibrations; got != 2 {
		t.Errorf("step 0 made %d calibrations, want 2", got)
	}
	for _, st := range run.Steps {
		if st.Ratio() <= 1 {
			t.Errorf("step %d ratio %.2f, want > 1", st.Step, st.Ratio())
		}
		for _, fs := range st.Fields {
			if fs.BitRate <= 0 || fs.BitRate >= 32 {
				t.Errorf("step %d field %s bit rate %.2f out of range", st.Step, fs.Name, fs.BitRate)
			}
			if st.Step > 0 && fs.Name == nyx.FieldBaryonDensity && fs.Drift == 0 {
				t.Errorf("step %d density drift is 0; monitor is dead", st.Step)
			}
		}
	}

	// The archive must hold every step, seekable in any order, and decode
	// within each field's clamp-band error bound (sz guarantees bounds).
	sr, err := core.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != 8 {
		t.Fatalf("archive has %d steps, want 8", sr.Steps())
	}
	for _, i := range []int{7, 0, 4} {
		decoded, err := sr.ReadStep(i)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, fs := range run.Steps[i].Fields {
			cf := decoded[fs.Name]
			if cf == nil {
				t.Fatalf("step %d archive missing field %s", i, fs.Name)
			}
			recon, err := cf.Decompress(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			orig := steps[i][fs.Name]
			maxEB := 4 * fs.AvgEB // the engine's clamp-band ceiling
			var worst float64
			for j := range orig.Data {
				d := math.Abs(float64(orig.Data[j]) - float64(recon.Data[j]))
				if d > worst {
					worst = d
				}
			}
			if worst > maxEB*(1+1e-6) {
				t.Errorf("step %d field %s: max error %g exceeds clamp ceiling %g",
					i, fs.Name, worst, maxEB)
			}
		}
	}
}

// TestPipelineStreamZFP runs the same ≥8-step pipeline through the zfp
// backend: the driver must be codec-agnostic end to end.
func TestPipelineStreamZFP(t *testing.T) {
	steps := testSteps(t, 32, 8, nyx.FieldBaryonDensity)
	var buf bytes.Buffer
	sw, err := core.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := New(core.Config{PartitionDim: 8, Codec: codec.ZFP}, Options{
		Policy:         DriftTriggered,
		DriftThreshold: 0.25,
		Writer:         sw,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(context.Background(), FromSnapshots(steps))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(run.Steps) != 8 {
		t.Fatalf("run has %d steps, want 8", len(run.Steps))
	}
	if run.Ratio() <= 1 {
		t.Errorf("zfp run ratio %.2f, want > 1", run.Ratio())
	}
	sr, err := core.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	last, err := sr.ReadStep(7)
	if err != nil {
		t.Fatal(err)
	}
	cf := last[nyx.FieldBaryonDensity]
	if cf == nil || cf.Codec != codec.ZFP {
		t.Fatalf("archived step 7 codec = %v, want zfp", cf)
	}
	if _, err := cf.Decompress(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinePolicies compares the three recalibration schedules on the
// same run: drift-triggered must recalibrate strictly fewer times than
// calibrate-every-step while staying within 5 % of its bit rate.
func TestPipelinePolicies(t *testing.T) {
	steps := testSteps(t, 32, 8, nyx.FieldBaryonDensity)
	runFor := func(p Policy) *RunStats {
		t.Helper()
		drv, err := New(core.Config{PartitionDim: 8}, Options{
			Policy: p, DriftThreshold: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		run, err := drv.Run(context.Background(), FromSnapshots(steps))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	every := runFor(CalibrateEveryStep)
	once := runFor(CalibrateOnce)
	drift := runFor(DriftTriggered)

	if every.Recalibrations != 8 {
		t.Errorf("every-step made %d calibrations, want 8", every.Recalibrations)
	}
	if once.Recalibrations != 1 {
		t.Errorf("calibrate-once made %d calibrations, want 1", once.Recalibrations)
	}
	if drift.Recalibrations >= every.Recalibrations {
		t.Errorf("drift-triggered made %d calibrations, not fewer than every-step's %d",
			drift.Recalibrations, every.Recalibrations)
	}
	if reacted := drift.Recalibrations + drift.ModelCorrections; reacted <= 1 {
		t.Errorf("drift-triggered made %d calibrations + %d corrections; drift never triggered",
			drift.Recalibrations, drift.ModelCorrections)
	}
	if every.ModelCorrections != 0 || once.ModelCorrections != 0 {
		t.Errorf("corrections outside DriftTriggered: every=%d once=%d",
			every.ModelCorrections, once.ModelCorrections)
	}
	rel := math.Abs(drift.BitRate()/every.BitRate() - 1)
	if rel > 0.05 {
		t.Errorf("drift-triggered bit rate %.3f vs every-step %.3f: %.1f%% apart, want ≤ 5%%",
			drift.BitRate(), every.BitRate(), rel*100)
	}
	// Identical budgets, identical data: the three policies' compressed
	// sizes may differ only through allocation, never by construction.
	if drift.Cells != every.Cells || once.Cells != every.Cells {
		t.Errorf("cell counts diverged: %d/%d/%d", drift.Cells, once.Cells, every.Cells)
	}
	// Throughput plumbing: any run that compressed cells in nonzero time
	// must report a positive rate, and steps must agree with their run.
	if once.CompressSeconds > 0 && once.CompressMBPerSec() <= 0 {
		t.Errorf("run CompressMBPerSec = %v with %v compress seconds",
			once.CompressMBPerSec(), once.CompressSeconds)
	}
	for _, st := range once.Steps {
		if st.CompressSeconds > 0 && st.CompressMBPerSec() <= 0 {
			t.Errorf("step %d CompressMBPerSec = %v", st.Step, st.CompressMBPerSec())
		}
	}
}

// TestDriverCalibrationReuse: state survives across Run calls, so a second
// segment of the same simulation does not refit.
func TestDriverCalibrationReuse(t *testing.T) {
	steps := testSteps(t, 32, 4, nyx.FieldBaryonDensity)
	drv, err := New(core.Config{PartitionDim: 8}, Options{Policy: CalibrateOnce})
	if err != nil {
		t.Fatal(err)
	}
	if drv.Calibration(nyx.FieldBaryonDensity) != nil {
		t.Fatal("calibration exists before any step")
	}
	first, err := drv.Run(context.Background(), FromSnapshots(steps[:2]))
	if err != nil {
		t.Fatal(err)
	}
	cal := drv.Calibration(nyx.FieldBaryonDensity)
	if cal == nil {
		t.Fatal("no calibration after first run")
	}
	second, err := drv.Run(context.Background(), FromSnapshots(steps[2:]))
	if err != nil {
		t.Fatal(err)
	}
	if first.Recalibrations != 1 || second.Recalibrations != 0 {
		t.Errorf("recalibrations %d/%d across runs, want 1/0",
			first.Recalibrations, second.Recalibrations)
	}
	if drv.Calibration(nyx.FieldBaryonDensity) != cal {
		t.Error("second run replaced the calibration under CalibrateOnce")
	}
}

func TestPipelineBudgetOverride(t *testing.T) {
	steps := testSteps(t, 32, 1, nyx.FieldBaryonDensity)
	drv, err := New(core.Config{PartitionDim: 8}, Options{
		AvgEBs: map[string]float64{nyx.FieldBaryonDensity: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(context.Background(), FromSnapshots(steps))
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Steps[0].Fields[0].AvgEB; got != 0.5 {
		t.Errorf("budget %.3g, want the 0.5 override", got)
	}
	if _, err := New(core.Config{}, Options{AvgEBs: map[string]float64{"x": -1}}); err == nil {
		t.Error("negative budget override accepted")
	}
	if _, err := New(core.Config{}, Options{RelAvgEB: -0.1}); err == nil {
		t.Error("negative RelAvgEB accepted")
	}
	if _, err := New(core.Config{}, Options{DriftThreshold: -1}); err == nil {
		t.Error("negative drift threshold accepted")
	}
}

func TestPipelineSourceAdapters(t *testing.T) {
	steps := testSteps(t, 16, 2, nyx.FieldBaryonDensity)

	ch := make(chan map[string]*grid.Field3D, len(steps))
	for _, s := range steps {
		ch <- s
	}
	close(ch)
	drv, err := New(core.Config{PartitionDim: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(context.Background(), FromChannel(ch))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Steps) != 2 {
		t.Errorf("channel source yielded %d steps, want 2", len(run.Steps))
	}

	// A source error aborts the run but returns the stats so far.
	boom := errors.New("boom")
	n := 0
	src := SourceFunc(func() (map[string]*grid.Field3D, error) {
		if n++; n > 1 {
			return nil, boom
		}
		return steps[0], nil
	})
	run, err = drv.Run(context.Background(), src)
	if !errors.Is(err, boom) {
		t.Fatalf("source error not propagated: %v", err)
	}
	if len(run.Steps) != 1 {
		t.Errorf("partial run kept %d steps, want 1", len(run.Steps))
	}

	// An empty snapshot is a driver error.
	if _, err := drv.Step(context.Background(), nil); err == nil {
		t.Error("empty snapshot accepted")
	}
}

// TestNestedFanOutBounded pins the shared-pool contract end to end: a step
// with FieldWorkers > 1, multi-partition fields, and the zfp codec (whose
// big partitions fan out once more at block level) must keep the number of
// concurrently running fan-out bodies at O(pool limit) — with per-level
// worker pools this configuration would schedule fields × partitions ×
// block-chunks goroutines.
func TestNestedFanOutBounded(t *testing.T) {
	const limit = 3
	restore := parallel.SetLimit(limit)
	defer restore()

	// Two 64³ fields of 8 partitions each; 32³ partitions are 512 blocks,
	// above zfp's block-parallel threshold, so all three levels fan out.
	steps := testSteps(t, 64, 1, nyx.FieldBaryonDensity, nyx.FieldTemperature)
	drv, err := New(core.Config{PartitionDim: 32, Codec: codec.ZFP},
		Options{FieldWorkers: 4, Policy: CalibrateOnce})
	if err != nil {
		t.Fatal(err)
	}
	parallel.ResetPeak()
	if _, err := drv.Step(context.Background(), steps[0]); err != nil {
		t.Fatal(err)
	}
	// Three nested levels (fields → partitions → block chunks), each
	// adding at most limit helpers plus its callers' own bodies.
	if got, bound := parallel.Peak(), int64(3*(limit+1)); got > bound {
		t.Errorf("nested step peaked at %d concurrent fan-out bodies, bound %d", got, bound)
	}
	if parallel.Peak() < 2 {
		t.Errorf("fan-out never went concurrent (peak %d) — pool helpers were not recruited", parallel.Peak())
	}
}

// TestRunCancelBetweenSteps cancels from the OnStep callback: the run must
// stop within one step with context.Canceled, keep the stats of every
// completed step, and — because no partial step ever reaches the writer —
// leave a stream that Close turns into a valid truncated v3 archive.
func TestRunCancelBetweenSteps(t *testing.T) {
	steps := testSteps(t, 32, 8, nyx.FieldBaryonDensity)

	var buf bytes.Buffer
	sw, err := core.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 3
	drv, err := New(core.Config{PartitionDim: 8}, Options{
		Writer: sw,
		OnStep: func(st *StepStats) {
			if st.Step == cancelAfter-1 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(ctx, FromSnapshots(steps))
	if err == nil {
		t.Fatal("run completed despite mid-run cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) is false: %v", err)
	}
	if len(run.Steps) != cancelAfter {
		t.Fatalf("run kept %d steps, want the %d completed before cancel", len(run.Steps), cancelAfter)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := core.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("truncated stream did not open: %v", err)
	}
	if sr.Steps() != cancelAfter {
		t.Fatalf("truncated stream has %d steps, want %d", sr.Steps(), cancelAfter)
	}
	for i := 0; i < sr.Steps(); i++ {
		fields, err := sr.ReadStep(i)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cf := fields[nyx.FieldBaryonDensity]
		recon, err := cf.Decompress(context.Background())
		if err != nil {
			t.Fatalf("step %d decompress: %v", i, err)
		}
		if recon.Len() != steps[i][nyx.FieldBaryonDensity].Len() {
			t.Fatalf("step %d reconstructed %d cells", i, recon.Len())
		}
	}
}

// TestRunCancelMidStep cancels while a step is compressing (the source
// cancels right after handing out its snapshot): the step must fail with
// context.Canceled, the partial step must not reach the writer, and no
// pool tokens may leak.
func TestRunCancelMidStep(t *testing.T) {
	steps := testSteps(t, 32, 4, nyx.FieldBaryonDensity)

	var buf bytes.Buffer
	sw, err := core.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := 0
	src := SourceFunc(func() (map[string]*grid.Field3D, error) {
		if served >= len(steps) {
			return nil, io.EOF
		}
		snap := steps[served]
		served++
		if served == 3 {
			cancel() // the driver is handed the snapshot, then sees the cancel mid-step
		}
		return snap, nil
	})
	drv, err := New(core.Config{PartitionDim: 8}, Options{Writer: sw})
	if err != nil {
		t.Fatal(err)
	}
	run, err := drv.Run(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) is false: %v", err)
	}
	if len(run.Steps) != 2 {
		t.Fatalf("run kept %d steps, want 2 completed before the mid-step cancel", len(run.Steps))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := core.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("truncated stream did not open: %v", err)
	}
	if sr.Steps() != 2 {
		t.Fatalf("canceled step leaked into the archive: %d steps, want 2", sr.Steps())
	}
}

// TestRefitFailureTagging pins the classification of mid-run
// recalibration failures: real fit failures carry the drift sentinel, but
// the run's own cancellation surfacing inside Calibrate must classify as
// context.Canceled only — a clean shutdown is not a bad stream.
func TestRefitFailureTagging(t *testing.T) {
	fitErr := errors.New("core: rate-model fit: degenerate curves")
	err := tagRefitFailure("rho", 0.4, fitErr)
	if !errors.Is(err, apierr.ErrDriftRecalibration) || !errors.Is(err, fitErr) {
		t.Fatalf("fit failure lost its tagging: %v", err)
	}
	var dre *apierr.DriftRecalibrationError
	if !errors.As(err, &dre) || dre.Field != "rho" || dre.Drift != 0.4 {
		t.Fatalf("typed error: %+v", dre)
	}

	for _, cancelErr := range []error{
		fmt.Errorf("core: calibration: %w", context.Canceled),
		fmt.Errorf("core: calibration: %w", context.DeadlineExceeded),
	} {
		err := tagRefitFailure("rho", 0.4, cancelErr)
		if errors.Is(err, apierr.ErrDriftRecalibration) {
			t.Fatalf("cancellation misclassified as drift failure: %v", err)
		}
		if err != cancelErr {
			t.Fatalf("cancellation rewrapped: %v", err)
		}
	}
}

// TestStepCompressedIsolatesFieldFailures: one bad field must fail alone —
// the per-field Errs map carries it while the step's other fields still
// compress.
func TestStepCompressedIsolatesFieldFailures(t *testing.T) {
	steps := testSteps(t, 32, 1, nyx.FieldBaryonDensity)
	drv, err := New(core.Config{PartitionDim: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := grid.NewCube(12) // 12 % 8 != 0: partitioning must reject it
	for i := range bad.Data {
		bad.Data[i] = float32(i)
	}
	snap := map[string]*grid.Field3D{
		"good": steps[0][nyx.FieldBaryonDensity],
		"bad":  bad,
	}
	res, err := drv.StepCompressed(context.Background(), snap, StepOptions{})
	if err != nil {
		t.Fatalf("step-level error for a single bad field: %v", err)
	}
	if res.Errs["bad"] == nil {
		t.Fatal("bad field's error lost")
	}
	if res.Fields["bad"] != nil {
		t.Fatal("bad field produced output")
	}
	cf := res.Fields["good"]
	if cf == nil {
		t.Fatal("good field aborted by the bad one")
	}
	if _, err := cf.Decompress(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Bytes != int64(cf.CompressedSize()) {
		t.Fatalf("stats count failed fields: bytes %d, want %d", res.Stats.Bytes, cf.CompressedSize())
	}

	// Step over the same snapshot keeps the all-or-nothing contract.
	if _, err := drv.Step(context.Background(), snap); err == nil {
		t.Fatal("Step accepted a snapshot with a failing field")
	}
}

// TestStepCompressedBudgetScale: scaling the budget up for one step must
// cost fewer bits than the unscaled step, leave the stored budget
// unscaled, and report the effective (scaled) budget in the stats — the
// contract the service's load controller steps rate targets through.
func TestStepCompressedBudgetScale(t *testing.T) {
	steps := testSteps(t, 32, 1, nyx.FieldBaryonDensity)
	snap := steps[0]

	bitRateAt := func(scale float64) (bitRate, avgEB float64) {
		drv, err := New(core.Config{PartitionDim: 8}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := drv.StepCompressed(context.Background(), snap, StepOptions{BudgetScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errs) > 0 {
			t.Fatalf("per-field errors: %v", res.Errs)
		}
		return res.Stats.BitRate(), res.Stats.Fields[0].AvgEB
	}

	base, baseEB := bitRateAt(0) // 0 = unscaled
	loose, looseEB := bitRateAt(8)
	if loose >= base {
		t.Fatalf("8× budget did not reduce the bit rate: %.3f → %.3f bits/value", base, loose)
	}
	if math.Abs(looseEB-8*baseEB) > 1e-12*looseEB {
		t.Fatalf("effective budget %g not 8× the base %g", looseEB, baseEB)
	}

	// A negative, NaN or infinite scale is a config error.
	drv, err := New(core.Config{PartitionDim: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := drv.StepCompressed(context.Background(), snap, StepOptions{BudgetScale: scale}); !errors.Is(err, apierr.ErrBadConfig) {
			t.Fatalf("budget scale %g accepted: %v", scale, err)
		}
	}
}
