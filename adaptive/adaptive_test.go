package adaptive_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/adaptive"
	"repro/adaptive/codecs"
)

// testField builds a deterministic non-constant positive field that
// calibrates cleanly.
func testField(n int) *adaptive.Field {
	f := adaptive.NewField(n, n, n)
	for i := range f.Data {
		x := float64(i)
		f.Data[i] = float32(2 + math.Sin(x*0.37)*math.Cos(x*0.011) + 0.5*math.Sin(x*0.0031))
	}
	return f
}

func newSystem(t *testing.T, opts ...adaptive.Option) *adaptive.System {
	t.Helper()
	sys, err := adaptive.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFacadeRoundTrip exercises the whole public path: calibrate, plan,
// compress, archive round-trip, decompress, error-bound check.
func TestFacadeRoundTrip(t *testing.T) {
	ctx := context.Background()
	sys := newSystem(t, adaptive.WithPartitionDim(8), adaptive.WithCodec("sz"))
	f := testField(32)

	cal, err := sys.Calibrate(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(ctx, f, cal, adaptive.PlanOptions{AvgEB: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := sys.CompressAdaptive(ctx, f, plan)
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := adaptive.ParseArchive(cf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	recon, err := parsed.Decompress(ctx)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, err := adaptive.MaxAbsError(f.Data, recon.Data)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, eb := range plan.EBs {
		if eb > worst {
			worst = eb
		}
	}
	if maxErr > worst*(1+1e-12) {
		t.Fatalf("max error %g exceeds largest planned bound %g", maxErr, worst)
	}
}

// validArchive builds a well-formed single-field archive for corruption.
func validArchive(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	sys := newSystem(t, adaptive.WithPartitionDim(8))
	f := testField(16)
	cf, err := sys.CompressStatic(ctx, f, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return cf.Bytes()
}

// validStream builds a well-formed two-step v3 stream.
func validStream(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	sw, err := adaptive.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, adaptive.WithPartitionDim(8), adaptive.WithStreamWriter(sw))
	f := testField(16)
	for i := 0; i < 2; i++ {
		if _, err := sys.Step(ctx, map[string]*adaptive.Field{"rho": f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestErrorTaxonomy drives every sentinel from facade-level calls,
// table-driven, asserting errors.Is through all the wrapping layers.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	f := testField(32)

	cases := []struct {
		name    string
		err     func(t *testing.T) error
		want    []error
		notWant []error
	}{
		{
			name: "option rejects bad partition dim",
			err: func(t *testing.T) error {
				_, err := adaptive.New(adaptive.WithPartitionDim(-4))
				return err
			},
			want:    []error{adaptive.ErrBadConfig},
			notWant: []error{adaptive.ErrCorruptArchive, adaptive.ErrCodecUnknown},
		},
		{
			name: "option rejects bad clamp factor",
			err: func(t *testing.T) error {
				_, err := adaptive.New(adaptive.WithClampFactor(0.5))
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "option rejects bad field budget",
			err: func(t *testing.T) error {
				_, err := adaptive.New(adaptive.WithFieldBudget("rho", -1))
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "option rejects ambiguous zero guard band",
			err: func(t *testing.T) error {
				_, err := adaptive.New(adaptive.WithModelGuardBand(0))
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "unknown backend name",
			err: func(t *testing.T) error {
				_, err := adaptive.New(adaptive.WithCodec("lz77"))
				return err
			},
			want:    []error{adaptive.ErrCodecUnknown},
			notWant: []error{adaptive.ErrBadConfig},
		},
		{
			name: "codecs lookup of unknown id",
			err: func(t *testing.T) error {
				_, err := codecs.Lookup("nope")
				return err
			},
			want: []error{adaptive.ErrCodecUnknown},
		},
		{
			name: "non-positive static bound",
			err: func(t *testing.T) error {
				_, err := newSystem(t, adaptive.WithPartitionDim(8)).CompressStatic(ctx, f, -1)
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "non-positive plan budget",
			err: func(t *testing.T) error {
				sys := newSystem(t, adaptive.WithPartitionDim(8))
				cal, err := sys.Calibrate(ctx, f)
				if err != nil {
					t.Fatal(err)
				}
				_, err = sys.Plan(ctx, f, cal, adaptive.PlanOptions{AvgEB: 0})
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "field not divisible by partition dim",
			err: func(t *testing.T) error {
				_, err := newSystem(t, adaptive.WithPartitionDim(24)).CompressStatic(ctx, f, 0.1)
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "streaming step on empty snapshot",
			err: func(t *testing.T) error {
				_, err := newSystem(t).Step(ctx, nil)
				return err
			},
			want: []error{adaptive.ErrBadConfig},
		},
		{
			name: "archive with bad magic",
			err: func(t *testing.T) error {
				blob := validArchive(t)
				copy(blob[0:4], "EVIL")
				_, err := adaptive.ParseArchive(blob)
				return err
			},
			want:    []error{adaptive.ErrCorruptArchive},
			notWant: []error{adaptive.ErrBadConfig},
		},
		{
			name: "archive with hostile partition count",
			err: func(t *testing.T) error {
				blob := validArchive(t)
				binary.LittleEndian.PutUint32(blob[24:28], 0x7fffffff)
				_, err := adaptive.ParseArchive(blob)
				return err
			},
			want: []error{adaptive.ErrCorruptArchive},
		},
		{
			name: "archive with hostile dimensions",
			err: func(t *testing.T) error {
				blob := validArchive(t)
				binary.LittleEndian.PutUint32(blob[8:12], 0xffffffff)
				_, err := adaptive.ParseArchive(blob)
				return err
			},
			want: []error{adaptive.ErrCorruptArchive},
		},
		{
			name: "truncated archive",
			err: func(t *testing.T) error {
				blob := validArchive(t)
				_, err := adaptive.ParseArchive(blob[:len(blob)-7])
				return err
			},
			want: []error{adaptive.ErrCorruptArchive},
		},
		{
			name: "archive frame naming a foreign codec",
			err: func(t *testing.T) error {
				blob := validArchive(t)
				// First frame envelope: archive header (28) + length
				// prefix (4) + frame magic/version (5) + ID length byte,
				// then the ID bytes — overwrite "sz" with an unregistered
				// name of equal length.
				copy(blob[28+4+6:], "xx")
				_, err := adaptive.ParseArchive(blob)
				return err
			},
			want: []error{adaptive.ErrCorruptArchive, adaptive.ErrCodecUnknown},
		},
		{
			name: "stream with bad trailer magic",
			err: func(t *testing.T) error {
				blob := validStream(t)
				copy(blob[len(blob)-4:], "EVIL")
				_, err := adaptive.OpenStream(bytes.NewReader(blob), int64(len(blob)))
				return err
			},
			want: []error{adaptive.ErrCorruptArchive},
		},
		{
			name: "stream with inconsistent index",
			err: func(t *testing.T) error {
				blob := validStream(t)
				binary.LittleEndian.PutUint64(blob[len(blob)-12:], uint64(len(blob))) // index offset past EOF
				_, err := adaptive.OpenStream(bytes.NewReader(blob), int64(len(blob)))
				return err
			},
			want: []error{adaptive.ErrCorruptArchive},
		},
		{
			name: "truncated stream body",
			err: func(t *testing.T) error {
				blob := validStream(t)
				_, err := adaptive.OpenStream(bytes.NewReader(blob[:len(blob)/2]), int64(len(blob)/2))
				return err
			},
			want: []error{adaptive.ErrCorruptArchive},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err(t)
			if err == nil {
				t.Fatal("call unexpectedly succeeded")
			}
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("errors.Is(%v, %v) is false", err, want)
				}
			}
			for _, not := range tc.notWant {
				if errors.Is(err, not) {
					t.Errorf("errors.Is(%v, %v) is true, want false", err, not)
				}
			}
		})
	}
}

// TestNonFiniteConfigRejected walks every entry point that takes an error
// bound, a budget or a tuning factor: NaN (which fails every ordered
// comparison, so `x <= 0` checks let it through) and +Inf bounds must be
// refused as ErrBadConfig, not run as a silently degraded configuration.
func TestNonFiniteConfigRejected(t *testing.T) {
	ctx := context.Background()
	f := testField(16)
	nan, inf := math.NaN(), math.Inf(1)
	sys := newSystem(t, adaptive.WithPartitionDim(8))
	cal, err := sys.Calibrate(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	features, err := sys.Features(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	newWith := func(o adaptive.Option) func() error {
		return func() error { _, err := adaptive.New(o); return err }
	}
	runRank := func(cfg adaptive.RankConfig) func() error {
		return func() error {
			return adaptive.RunWorld(1, func(tr adaptive.Transport) error {
				_, err := adaptive.RunRank(ctx, tr, distSource(t), io.Discard, cfg)
				return err
			})
		}
	}
	for name, call := range map[string]func() error{
		"WithClampFactor(NaN)":    newWith(adaptive.WithClampFactor(nan)),
		"WithRelAvgEB(NaN)":       newWith(adaptive.WithRelAvgEB(nan)),
		"WithRelAvgEB(+Inf)":      newWith(adaptive.WithRelAvgEB(inf)),
		"WithFieldBudget(NaN)":    newWith(adaptive.WithFieldBudget("rho", nan)),
		"WithFieldBudget(+Inf)":   newWith(adaptive.WithFieldBudget("rho", inf)),
		"WithDriftThreshold(NaN)": newWith(adaptive.WithDriftThreshold(nan)),
		"WithModelGuardBand(NaN)": newWith(adaptive.WithModelGuardBand(nan)),
		"RunRank AvgEB NaN":       runRank(adaptive.RankConfig{Engine: adaptive.EngineConfig{PartitionDim: 8}, AvgEB: nan}),
		"RunRank AvgEB +Inf":      runRank(adaptive.RankConfig{Engine: adaptive.EngineConfig{PartitionDim: 8}, AvgEB: inf}),
		"RunRank ClampFactor NaN": runRank(adaptive.RankConfig{Engine: adaptive.EngineConfig{PartitionDim: 8, ClampFactor: nan}, AvgEB: 0.5}),
		"CompressStatic(NaN)":     func() error { _, err := sys.CompressStatic(ctx, f, nan); return err },
		"CompressStatic(+Inf)":    func() error { _, err := sys.CompressStatic(ctx, f, inf); return err },
		"Plan AvgEB NaN":          func() error { _, err := sys.Plan(ctx, f, cal, adaptive.PlanOptions{AvgEB: nan}); return err },
		"Plan AvgEB +Inf":         func() error { _, err := sys.Plan(ctx, f, cal, adaptive.PlanOptions{AvgEB: inf}); return err },
		"PlanFromFeatures AvgEB NaN": func() error {
			_, err := sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: nan})
			return err
		},
		"PlanFromFeatures AvgEB +Inf": func() error {
			_, err := sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: inf})
			return err
		},
	} {
		if err := call(); !errors.Is(err, adaptive.ErrBadConfig) {
			t.Errorf("%s: err %v, want ErrBadConfig", name, err)
		}
	}
}

// TestDriftRecalibrationError forces a mid-run re-fit to fail (the
// drifted step is a constant field, which cannot be calibrated) and
// asserts both errors.Is on the sentinel and errors.As on the typed form.
func TestDriftRecalibrationError(t *testing.T) {
	ctx := context.Background()
	sys := newSystem(t,
		adaptive.WithPartitionDim(8),
		adaptive.WithPolicy(adaptive.DriftTriggered),
		adaptive.WithDriftThreshold(0.1),
	)
	good := testField(16)
	flat := adaptive.NewField(16, 16, 16)
	for i := range flat.Data {
		flat.Data[i] = 42 // constant: drift is huge and the re-fit must fail
	}

	if _, err := sys.Step(ctx, map[string]*adaptive.Field{"rho": good}); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Step(ctx, map[string]*adaptive.Field{"rho": flat})
	if err == nil {
		t.Fatal("step on uncalibratable drifted field succeeded")
	}
	if !errors.Is(err, adaptive.ErrDriftRecalibration) {
		t.Fatalf("errors.Is(err, ErrDriftRecalibration) is false: %v", err)
	}
	if !errors.Is(err, adaptive.ErrBadConfig) {
		t.Fatalf("underlying calibration failure lost from the chain: %v", err)
	}
	var dre *adaptive.DriftRecalibrationError
	if !errors.As(err, &dre) {
		t.Fatalf("errors.As(err, *DriftRecalibrationError) is false: %v", err)
	}
	if dre.Field != "rho" || dre.Drift <= 0.1 {
		t.Fatalf("typed error carries field %q drift %g", dre.Field, dre.Drift)
	}

	// The field's first calibration failing is NOT a drift refit.
	fresh := newSystem(t, adaptive.WithPartitionDim(8))
	_, err = fresh.Step(ctx, map[string]*adaptive.Field{"rho": flat})
	if err == nil || errors.Is(err, adaptive.ErrDriftRecalibration) {
		t.Fatalf("initial calibration failure misclassified as drift refit: %v", err)
	}
}

// TestFacadeCancellation cancels a facade-level Run mid-stream and checks
// the canonical recovery story: context.Canceled surfaces, and the
// archive writer closes into a stream OpenStream accepts.
func TestFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var buf bytes.Buffer
	sw, err := adaptive.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t,
		adaptive.WithPartitionDim(8),
		adaptive.WithStreamWriter(sw),
		adaptive.WithOnStep(func(st *adaptive.StepStats) {
			if st.Step == 1 {
				cancel()
			}
		}),
	)
	f := testField(16)
	steps := make([]map[string]*adaptive.Field, 5)
	for i := range steps {
		steps[i] = map[string]*adaptive.Field{"rho": f}
	}
	run, err := sys.Run(ctx, adaptive.FromSnapshots(steps))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) is false: %v", err)
	}
	if len(run.Steps) != 2 {
		t.Fatalf("kept %d steps, want 2", len(run.Steps))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := adaptive.OpenStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("truncated stream did not open: %v", err)
	}
	if sr.Steps() != 2 {
		t.Fatalf("stream has %d steps, want 2", sr.Steps())
	}

	// Pre-canceled engine-level calls refuse promptly too.
	pre, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := sys.CompressStatic(pre, f, 0.1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled CompressStatic: %v", err)
	}
	cf, err := sys.CompressStatic(context.Background(), f, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Decompress(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Decompress: %v", err)
	}
}

// TestSourceAdapters exercises the facade's source constructors.
func TestSourceAdapters(t *testing.T) {
	f := testField(16)
	ch := make(chan map[string]*adaptive.Field, 2)
	ch <- map[string]*adaptive.Field{"a": f}
	ch <- map[string]*adaptive.Field{"a": f}
	close(ch)
	src := adaptive.FromChannel(ch)
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("channel source yielded %d steps", n)
	}
}

// TestExperimentContextFromOptions pins the option → experiment-config
// mapping (the third config struct the facade unified).
func TestExperimentContextFromOptions(t *testing.T) {
	ctx, err := adaptive.NewExperimentContext(
		adaptive.WithGridN(32),
		adaptive.WithPartitionDim(8),
		adaptive.WithSeed(11),
		adaptive.WithCodec("zfp"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Cfg.N != 32 || ctx.Cfg.PartitionDim != 8 || ctx.Cfg.Seed != 11 || string(ctx.Cfg.Codec) != "zfp" {
		t.Fatalf("experiment config %+v does not reflect options", ctx.Cfg)
	}
	if _, err := adaptive.ExperimentByID("fig13"); err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Experiments()) == 0 {
		t.Fatal("no experiments listed")
	}
}
