package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/nyx"
	"repro/internal/optimizer"
	"repro/internal/stats"
)

// testSnapshot memoizes one synthetic snapshot for the whole test file.
var testSnap *nyx.Snapshot

func snap(t *testing.T) *nyx.Snapshot {
	t.Helper()
	if testSnap == nil {
		s, err := nyx.Generate(nyx.Params{N: 64, Seed: 11, Redshift: 42})
		if err != nil {
			t.Fatal(err)
		}
		testSnap = s
	}
	return testSnap
}

func field(t *testing.T, name string) *grid.Field3D {
	f, err := snap(t).Field(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func engine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineDefaults(t *testing.T) {
	e := engine(t, Config{})
	if e.Config().PartitionDim != 16 || e.Config().ClampFactor != 4 || e.Config().Workers < 1 {
		t.Errorf("defaults not applied: %+v", e.Config())
	}
	if _, err := NewEngine(Config{PartitionDim: -1}); err == nil {
		t.Error("negative partition dim accepted")
	}
	if _, err := NewEngine(Config{ClampFactor: 0.2}); err == nil {
		t.Error("clamp < 1 accepted")
	}
}

// TestPartitionerFollowsFieldShape: the engine keeps the partitioner of
// the last field shape it saw; a field of another shape (or a shape that
// does not divide) must get its own, concurrently too, and compress as a
// fresh engine would.
func TestPartitionerFollowsFieldShape(t *testing.T) {
	shared := engine(t, Config{PartitionDim: 8})
	cube := func(nx, ny, nz int) *grid.Field3D {
		f := grid.NewField3D(nx, ny, nz)
		for i := range f.Data {
			x, y, z := f.Coords(i)
			f.Data[i] = float32(x) - 0.5*float32(y) + 0.25*float32(z*x%5)
		}
		return f
	}
	// Consecutive shapes share all axes but one.
	shapes := [][3]int{{16, 16, 16}, {32, 16, 16}, {32, 8, 16}, {32, 8, 24}, {8, 8, 24}}
	want := make([][]byte, len(shapes))
	for i, sh := range shapes {
		f := cube(sh[0], sh[1], sh[2])
		cf, err := engine(t, Config{PartitionDim: 8}).CompressStatic(context.Background(), f, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cf.Bytes()
		got, err := shared.CompressStatic(context.Background(), f, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want[i]) {
			t.Fatalf("shape %v after %v: the shared engine's archive differs from a fresh engine's", sh, shapes[max(i-1, 0)])
		}
	}
	var wg sync.WaitGroup
	for run := 0; run < 2*len(shapes); run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := shapes[run%len(shapes)]
			got, err := shared.CompressStatic(context.Background(), cube(sh[0], sh[1], sh[2]), 0.01)
			if err != nil {
				t.Errorf("shape %v: %v", sh, err)
			} else if !bytes.Equal(got.Bytes(), want[run%len(shapes)]) {
				t.Errorf("run %d, shape %v: the shared engine's archive differs from a fresh engine's", run, sh)
			}
		}()
	}
	wg.Wait()
	if _, err := shared.CompressStatic(context.Background(), cube(12, 16, 16), 0.01); err == nil {
		t.Error("a field not divisible by the partition dim was accepted after a cached shape")
	}
}

func TestNewEngineRejectsUnknownCodec(t *testing.T) {
	if _, err := NewEngine(Config{Codec: "lz4"}); !errors.Is(err, codec.ErrUnknownCodec) {
		t.Errorf("unknown codec: got %v, want ErrUnknownCodec", err)
	}
	e := engine(t, Config{})
	if e.Config().Codec != codec.SZ {
		t.Errorf("default codec %q, want sz", e.Config().Codec)
	}
}

// TestAdaptivePipelinePerCodec runs calibrate → plan → adaptive compress →
// decompress → archive round trip through every registered backend: the
// configurator must be codec-agnostic end to end.
func TestAdaptivePipelinePerCodec(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	for _, id := range codec.IDs() {
		t.Run(string(id), func(t *testing.T) {
			e := engine(t, Config{PartitionDim: 16, Codec: id})
			cal, err := e.Calibrate(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			cf, err := e.CompressAdaptive(context.Background(), f, plan)
			if err != nil {
				t.Fatal(err)
			}
			if cf.Codec != id {
				t.Errorf("field tagged %q", cf.Codec)
			}
			for i, p := range cf.Parts {
				if p.CodecID() != id {
					t.Fatalf("partition %d tagged %q", i, p.CodecID())
				}
			}
			if r := cf.Ratio(); r <= 1 {
				t.Errorf("ratio %.2f not compressive", r)
			}
			recon, err := cf.Decompress(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// SZ guarantees each partition's planned bound; ZFP's rate
			// search is best-effort, so only sanity-check reconstruction.
			mx, _ := stats.MaxAbsError(f.Data, recon.Data)
			if id == codec.SZ {
				maxEB := 0.0
				for _, eb := range plan.EBs {
					maxEB = math.Max(maxEB, eb)
				}
				if mx > maxEB*(1+1e-5) {
					t.Errorf("max error %v beyond largest bound %v", mx, maxEB)
				}
			} else if math.IsNaN(mx) || math.IsInf(mx, 0) {
				t.Errorf("bad reconstruction error %v", mx)
			}

			// Archives are self-describing: parse back without telling the
			// parser which codec wrote them.
			parsed, err := ParseCompressedField(cf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if parsed.Codec != id {
				t.Errorf("parsed archive tagged %q, want %q", parsed.Codec, id)
			}
			back, err := parsed.Decompress(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i := range recon.Data {
				if recon.Data[i] != back.Data[i] {
					t.Fatalf("archive round trip changed data at %d", i)
				}
			}
		})
	}
}

func TestCalibrateOnTemperature(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	cal, err := e.Calibrate(context.Background(), field(t, nyx.FieldTemperature))
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if cal.Model.Exponent >= 0 || cal.Model.Exponent < -2 {
		t.Errorf("exponent %v outside plausible range", cal.Model.Exponent)
	}
	if len(cal.Curves) < 2 {
		t.Errorf("only %d calibration curves", len(cal.Curves))
	}
	// The fitted model should predict the calibration curves within ~50 %
	// (the paper's model is approximate; it only needs relative ordering).
	var relErr stats.Moments
	for _, cu := range cal.Curves {
		for j := range cu.EBs {
			pred := cal.Model.BitRate(cu.Feature, cu.EBs[j])
			relErr.Add(math.Abs(pred-cu.BitRates[j]) / cu.BitRates[j])
		}
	}
	if relErr.Mean() > 0.5 {
		t.Errorf("mean relative rate-model error %.2f too large", relErr.Mean())
	}
}

func TestCalibrateErrors(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	flat := grid.NewCube(32)
	flat.Fill(1)
	if _, err := e.Calibrate(context.Background(), flat); err == nil {
		t.Error("constant field calibrated")
	}
	odd := grid.NewCube(30) // not divisible by 16
	if _, err := e.Calibrate(context.Background(), odd); err == nil {
		t.Error("non-divisible field accepted")
	}
}

func TestPlanAndCompressAdaptive(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldTemperature)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.MinMax()
	avgEB := float64(hi-lo) * 1e-4
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: avgEB})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.EBs) != 64 { // (64/16)³
		t.Fatalf("plan has %d bounds", len(plan.EBs))
	}
	if math.Abs(stats.MeanOf(plan.EBs)-avgEB) > 1e-6*avgEB {
		t.Errorf("plan mean eb %v != budget %v", stats.MeanOf(plan.EBs), avgEB)
	}

	adaptive, err := e.CompressAdaptive(context.Background(), f, plan)
	if err != nil {
		t.Fatal(err)
	}
	static, err := e.CompressStatic(context.Background(), f, avgEB)
	if err != nil {
		t.Fatal(err)
	}
	// Same quality budget (same average eb) → adaptive must not lose.
	if adaptive.Ratio() < static.Ratio()*0.98 {
		t.Errorf("adaptive ratio %.2f below static %.2f", adaptive.Ratio(), static.Ratio())
	}

	// Error bound per partition must hold after decompression.
	recon, err := adaptive.Decompress(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := grid.PartitionerForBrickDim(64, 16)
	for i, part := range p.Partitions() {
		orig := grid.Extract(f, part)
		rec := grid.Extract(recon, part)
		mx, _ := stats.MaxAbsError(orig, rec)
		if mx > plan.EBs[i]*(1+1e-5) {
			t.Fatalf("partition %d: error %v > eb %v", i, mx, plan.EBs[i])
		}
	}
}

func TestAdaptiveBeatsStaticOnBaryonDensity(t *testing.T) {
	// The heavy-tailed density field is where the paper's gains live.
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldBaryonDensity)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	avgEB := 0.1 // units of mean density
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: avgEB})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := e.CompressAdaptive(context.Background(), f, plan)
	if err != nil {
		t.Fatal(err)
	}
	static, err := e.CompressStatic(context.Background(), f, avgEB)
	if err != nil {
		t.Fatal(err)
	}
	improvement := adaptive.Ratio()/static.Ratio() - 1
	t.Logf("adaptive %.2f vs static %.2f (+%.1f%%)",
		adaptive.Ratio(), static.Ratio(), improvement*100)
	if improvement < 0.02 {
		t.Errorf("adaptive improvement %.3f too small on heterogeneous field", improvement)
	}
}

func TestPlanErrors(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldTemperature)
	cal, _ := e.Calibrate(context.Background(), f)
	if _, err := e.Plan(context.Background(), f, nil, PlanOptions{AvgEB: 1}); err == nil {
		t.Error("nil calibration accepted")
	}
	if _, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := e.CompressAdaptive(context.Background(), f, nil); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := e.CompressStatic(context.Background(), f, -1); err == nil {
		t.Error("negative static eb accepted")
	}
}

func TestSpectrumBudgetMonotone(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	tight, err := SpectrumBudget(f, BudgetOptions{Tolerance: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := SpectrumBudget(f, BudgetOptions{Tolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !(tight > 0 && loose > tight) {
		t.Errorf("budgets not monotone in tolerance: %v vs %v", tight, loose)
	}
}

func TestHaloBudgetAndPlan(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldBaryonDensity)
	bt, pt := nyx.DefaultHaloConfig()
	hcfg := halo.Config{BoundaryThreshold: bt, HaloThreshold: pt, Periodic: true}
	p, _ := grid.PartitionerForBrickDim(64, 16)
	hb, err := HaloBudget(f, hcfg, 0.01, 1.0, p)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Catalog.Count() == 0 {
		t.Skip("no halos at this seed; halo plan not exercisable")
	}
	if hb.MassBudget <= 0 {
		t.Fatal("zero mass budget despite halos")
	}
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.5, Halo: &hb.HaloConstraint})
	if err != nil {
		t.Fatal(err)
	}
	est, err := MassFaultEstimate(hb.TBoundary, hb.RefEB, hb.BoundaryCells, plan.EBs)
	if err != nil {
		t.Fatal(err)
	}
	if est > hb.MassBudget*(1+1e-9) {
		t.Errorf("plan violates halo budget: %v > %v", est, hb.MassBudget)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldDarkMatterDensity)
	cf, err := e.CompressStatic(context.Background(), f, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	blob := cf.Bytes()
	parsed, err := ParseCompressedField(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cf.Decompress(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := parsed.Decompress(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("archive round trip changed data")
		}
	}
	if parsed.Ratio() != cf.Ratio() {
		t.Errorf("ratio changed through archive")
	}
}

func TestArchiveRejectsCorruption(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldDarkMatterDensity)
	cf, _ := e.CompressStatic(context.Background(), f, 0.05)
	blob := cf.Bytes()
	cases := map[string]func([]byte) []byte{
		"short":     func(b []byte) []byte { return b[:10] },
		"magic":     func(b []byte) []byte { b[0] = 'x'; return b },
		"version":   func(b []byte) []byte { b[4] = 9; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-7] },
		"payload":   func(b []byte) []byte { b[len(b)-9] ^= 0xFF; return b },
		"trailing":  func(b []byte) []byte { return append(b, 0) },
	}
	for name, corrupt := range cases {
		if _, err := ParseCompressedField(corrupt(bytes.Clone(blob))); err == nil {
			t.Errorf("%s corruption accepted", name)
		}
	}
}

func TestCompressInSitu(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldBaryonDensity)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	cf, st, err := e.CompressInSitu(context.Background(), f, cal, InSituOptions{Ranks: 8, AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ranks != 8 || st.Collectives != 1 {
		t.Errorf("stats: %+v, want 8 ranks and the one feature gather", st)
	}
	if len(st.EBs) != 64 {
		t.Fatalf("in situ assigned %d ebs", len(st.EBs))
	}
	// All bounds inside the clamp box, and the budget held exactly: the
	// spectrum distortion depends only on mean(eb) (Eq. 10).
	for i, eb := range st.EBs {
		if eb < 0.1/4-1e-12 || eb > 0.4+1e-12 {
			t.Fatalf("eb[%d] = %v outside box", i, eb)
		}
	}
	if m := stats.MeanOf(st.EBs); math.Abs(m-0.1) > 1e-9*0.1 {
		t.Errorf("mean(eb) = %v, want the budget 0.1", m)
	}
	recon, err := cf.Decompress(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mx, _ := stats.MaxAbsError(f.Data, recon.Data)
	if mx > 0.4*(1+1e-5) {
		t.Errorf("in situ max error %v beyond clamp cap", mx)
	}

	// One planner: the in situ result is the offline path's, byte for byte.
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := e.CompressAdaptive(context.Background(), f, plan)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFrames(t, "8 ranks vs Plan+CompressAdaptive", cf, offline)
}

// assertSameFrames compares two compressed fields partition by partition.
func assertSameFrames(t *testing.T, what string, got, want *CompressedField) {
	t.Helper()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d partitions vs %d", what, len(got.Parts), len(want.Parts))
	}
	for i := range want.Parts {
		a, b := codec.EncodeFrame(got.Parts[i]), codec.EncodeFrame(want.Parts[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: partition %d differs (%d vs %d bytes)", what, i, len(a), len(b))
		}
	}
}

// TestCompressInSituRankInvariance: every world size — including more ranks
// than GOMAXPROCS and a size that does not divide the partition count —
// yields the frames of the one-rank world, with and without a halo budget
// that bites.
func TestCompressInSituRankInvariance(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldBaryonDensity)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := nyx.DefaultHaloConfig()
	for _, hc := range []*optimizer.HaloConstraint{nil, {TBoundary: bt, RefEB: 1.0, MassBudget: 1e-6}} {
		var ref *CompressedField
		var refStats *InSituStats
		for _, ranks := range []int{1, 3, 4, 16, 64} {
			cf, st, err := e.CompressInSitu(context.Background(), f, cal, InSituOptions{Ranks: ranks, AvgEB: 0.5, Halo: hc})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref, refStats = cf, st
				continue
			}
			assertSameFrames(t, fmt.Sprintf("halo=%v ranks=%d vs 1", hc != nil, ranks), cf, ref)
			if st.HaloScale != refStats.HaloScale {
				t.Fatalf("ranks=%d: halo scale %v != %v", ranks, st.HaloScale, refStats.HaloScale)
			}
		}
	}
}

func TestCompressInSituUnderHaloBudget(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldBaryonDensity)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	bt, pt := nyx.DefaultHaloConfig()
	// An absurdly tight budget must force a visible downscale.
	tight := &optimizer.HaloConstraint{TBoundary: bt, RefEB: 1.0, MassBudget: 1e-6}
	cf, st, err := e.CompressInSitu(context.Background(), f, cal, InSituOptions{Ranks: 4, AvgEB: 1.0, Halo: tight})
	if err != nil {
		t.Fatal(err)
	}
	if st.HaloScale >= 1 {
		t.Skip("no boundary cells at this seed; scale not triggered")
	}
	if st.HaloScale <= 0 {
		t.Fatalf("invalid halo scale %v", st.HaloScale)
	}
	// The scan's boundary cells are HaloBudget's: planning offline from the
	// derived constraint gives the same bytes.
	p, _ := grid.PartitionerForBrickDim(64, 16)
	hb, err := HaloBudget(f, halo.Config{BoundaryThreshold: bt, HaloThreshold: pt, Periodic: true}, 0.01, 1.0, p)
	if err != nil {
		t.Fatal(err)
	}
	hb.MassBudget = tight.MassBudget
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 1.0, Halo: &hb.HaloConstraint})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := e.CompressAdaptive(context.Background(), f, plan)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFrames(t, "halo: 4 ranks vs Plan+CompressAdaptive", cf, offline)
}

func TestSuggestStaticEB(t *testing.T) {
	e := engine(t, Config{PartitionDim: 16})
	f := field(t, nyx.FieldTemperature)
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	features, err := e.Features(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	target := 2.0 // bits/value
	eb, err := cal.SuggestStaticEB(features, target)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]float64, len(features))
	for i := range uniform {
		uniform[i] = eb
	}
	br, err := cal.Model.DatasetBitRate(features, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(br-target) > 0.01*target {
		t.Errorf("SuggestStaticEB: model bit rate %v at eb %v, want %v", br, eb, target)
	}
	if _, err := cal.SuggestStaticEB(features, -1); err == nil {
		t.Error("negative target accepted")
	}
}

// TestSteadyStateAllocationFlat pins the perf contract of the pooled hot
// path: once the engine's per-worker scratches are warm, compressing a
// snapshot costs O(partitions) small allocations (the retained frames and
// their payloads), not O(cells). The bound is loose enough for pool
// variance but orders of magnitude below an unpooled path, which allocated
// dozens of buffers and map nodes per partition.
func TestSteadyStateAllocationFlat(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	// Single worker so sync.Pool churn does not inflate the count.
	e := engine(t, Config{PartitionDim: 16, Workers: 1})
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompressAdaptive(context.Background(), f, plan); err != nil {
		t.Fatal(err) // warm the scratch pool
	}
	parts := len(plan.EBs)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.CompressAdaptive(context.Background(), f, plan); err != nil {
			t.Fatal(err)
		}
	})
	// Retained per partition: the frame value, the sz.Compressed struct,
	// and its code stream (plus occasional outlier copies); everything else
	// is scratch. 8 per partition + 16 fixed is ~2× headroom over measured.
	if limit := float64(8*parts + 16); allocs > limit {
		t.Errorf("steady-state CompressAdaptive: %.0f allocs for %d partitions (limit %.0f)",
			allocs, parts, limit)
	}
}

// TestSteadyStateDecodeAllocationFlat pins the decode side of the sz path:
// once the pooled scratches are warm, a partition's decode retains only its
// reconstruction. The entropy decoder's table build may not allocate per
// call (a reflection-based sort of the code table used to cost three).
func TestSteadyStateDecodeAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch; run without -race")
	}
	f := field(t, nyx.FieldBaryonDensity)
	e := engine(t, Config{PartitionDim: 16})
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := e.CompressAdaptive(context.Background(), f, plan)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := cf.Decompress(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm the scratch pool
	parts := len(cf.Parts)
	if limit, allocs := float64(2*parts+32), testing.AllocsPerRun(3, decode); allocs > limit {
		t.Errorf("steady-state Decompress: %.0f allocs for %d partitions (limit %.0f)",
			allocs, parts, limit)
	}
}

// TestSteadyStateAllocationFlatZFP pins the same contract for the zfp path,
// whose per-partition work is far heavier: a max-rate indexed compression,
// ~7 truncated probe decodes, and the spliced frame. With zfp.Scratch and
// the probe buffer pooled in the engine scratch, all of that costs a
// constant handful of allocations per partition (measured ~8: the retained
// frame/payload pair, the index and its offset table) — never O(cells) or
// O(probes × cells).
func TestSteadyStateAllocationFlatZFP(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	e := engine(t, Config{PartitionDim: 16, Workers: 1, Codec: codec.ZFP})
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Plan(context.Background(), f, cal, PlanOptions{AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompressAdaptive(context.Background(), f, plan); err != nil {
		t.Fatal(err) // warm the scratch pool
	}
	parts := len(plan.EBs)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.CompressAdaptive(context.Background(), f, plan); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(16*parts + 32); allocs > limit {
		t.Errorf("steady-state zfp CompressAdaptive: %.0f allocs for %d partitions (limit %.0f)",
			allocs, parts, limit)
	}
}
