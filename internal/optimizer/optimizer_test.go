package optimizer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/stats"
)

func testModel() *model.RateModel {
	// C_m = 1.5 + 0.4·ln(feature), c = −0.5 — representative of the
	// calibrations measured on the synthetic Nyx data.
	return &model.RateModel{Exponent: -0.5, Alpha: 1.5, Beta: 0.4, MinC: 0.05}
}

func spreadFeatures(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Pow(10, r.Uniform(-1, 1.5))
	}
	return out
}

func TestAllocatePreservesMeanAndBox(t *testing.T) {
	rm := testModel()
	features := spreadFeatures(512, 1)
	cfg := Config{AvgEB: 0.2}
	res, err := Allocate(rm, features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EBs) != 512 {
		t.Fatalf("allocated %d bounds", len(res.EBs))
	}
	mean := stats.MeanOf(res.EBs)
	if math.Abs(mean-0.2) > 1e-6 {
		t.Errorf("mean eb = %v, want 0.2", mean)
	}
	for i, eb := range res.EBs {
		if eb < 0.2/4-1e-12 || eb > 0.2*4+1e-12 {
			t.Fatalf("eb[%d] = %v outside clamp box", i, eb)
		}
	}
}

func TestAllocateImprovesOnUniform(t *testing.T) {
	rm := testModel()
	features := spreadFeatures(256, 2)
	res, err := Allocate(rm, features, Config{AvgEB: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedBitRate >= res.UniformBitRate {
		t.Errorf("optimized bit rate %v not below uniform %v",
			res.PredictedBitRate, res.UniformBitRate)
	}
	if res.PredictedImprovement() <= 0 {
		t.Errorf("predicted improvement %v", res.PredictedImprovement())
	}
}

func TestAllocateDirection(t *testing.T) {
	// Under EqualDerivative with c<0, less compressible partitions
	// (higher C_m, i.e. higher feature) must receive larger error bounds.
	rm := testModel()
	features := []float64{0.1, 1, 10, 100}
	res, err := Allocate(rm, features, Config{AvgEB: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.EBs); i++ {
		if res.EBs[i] < res.EBs[i-1] {
			t.Errorf("allocation not monotone in compressibility: %v", res.EBs)
		}
	}
}

func TestHomogeneousFeaturesGiveUniform(t *testing.T) {
	rm := testModel()
	features := []float64{5, 5, 5, 5}
	res, err := Allocate(rm, features, Config{AvgEB: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range res.EBs {
		if math.Abs(eb-0.3) > 1e-9 {
			t.Errorf("homogeneous data should get uniform bounds, got %v", res.EBs)
		}
	}
	if imp := res.PredictedImprovement(); math.Abs(imp) > 1e-9 {
		t.Errorf("improvement on homogeneous data = %v", imp)
	}
}

func TestPaperEq16Strategy(t *testing.T) {
	rm := testModel()
	features := []float64{0.1, 1, 10}
	res, err := Allocate(rm, features, Config{AvgEB: 1, Strategy: PaperEq16})
	if err != nil {
		t.Fatal(err)
	}
	// Mean and box still hold regardless of strategy.
	if math.Abs(stats.MeanOf(res.EBs)-1) > 1e-6 {
		t.Errorf("mean %v", stats.MeanOf(res.EBs))
	}
	// With c < 0, Eq. 16 as printed allocates in the opposite direction.
	if res.EBs[0] < res.EBs[2] {
		t.Errorf("PaperEq16 direction unexpected: %v", res.EBs)
	}
}

func TestConfigValidation(t *testing.T) {
	rm := testModel()
	if _, err := Allocate(rm, []float64{1}, Config{AvgEB: 0}); err == nil {
		t.Error("zero AvgEB accepted")
	}
	if _, err := Allocate(rm, []float64{1}, Config{AvgEB: 1, ClampFactor: 0.5}); err == nil {
		t.Error("clamp < 1 accepted")
	}
	if _, err := Allocate(rm, nil, Config{AvgEB: 1}); err == nil {
		t.Error("no partitions accepted")
	}
	if _, err := Allocate(&model.RateModel{Exponent: 1}, []float64{1}, Config{AvgEB: 1}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestClampFactorRespected(t *testing.T) {
	rm := &model.RateModel{Exponent: -0.9, Alpha: 1, Beta: 2, MinC: 0.01}
	features := spreadFeatures(64, 3)
	for _, k := range []float64{2, 4, 8} {
		res, err := Allocate(rm, features, Config{AvgEB: 1, ClampFactor: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, eb := range res.EBs {
			if eb < 1/k-1e-9 || eb > k+1e-9 {
				t.Fatalf("k=%v: eb %v outside box", k, eb)
			}
		}
		if math.Abs(stats.MeanOf(res.EBs)-1) > 1e-6 {
			t.Errorf("k=%v: mean %v", k, stats.MeanOf(res.EBs))
		}
	}
}

func TestAllocateWithHaloUnderBudget(t *testing.T) {
	rm := testModel()
	features := spreadFeatures(16, 4)
	hc := HaloConstraint{
		TBoundary:     88.16,
		RefEB:         1,
		BoundaryCells: make([]int, 16), // no boundary cells → no distortion
		MassBudget:    100,
	}
	res, err := AllocateWithHalo(rm, features, Config{AvgEB: 0.5}, hc)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaloScaled || res.HaloScale != 1 {
		t.Errorf("scaled without violation: %+v", res)
	}
}

func TestAllocateWithHaloOverBudget(t *testing.T) {
	rm := testModel()
	features := spreadFeatures(16, 5)
	cells := make([]int, 16)
	for i := range cells {
		cells[i] = 1000
	}
	hc := HaloConstraint{
		TBoundary:     88.16,
		RefEB:         1,
		BoundaryCells: cells,
		MassBudget:    10, // tiny budget forces scaling
	}
	res, err := AllocateWithHalo(rm, features, Config{AvgEB: 0.5}, hc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaloScaled || res.HaloScale >= 1 {
		t.Fatalf("expected halo scaling, got %+v", res)
	}
	// After scaling, the estimate must meet the budget exactly (linearity).
	est, err := model.MassFaultFromBoundaryCells(hc.TBoundary, hc.RefEB, cells, res.EBs)
	if err != nil {
		t.Fatal(err)
	}
	if est > hc.MassBudget*(1+1e-9) {
		t.Errorf("post-scale estimate %v > budget %v", est, hc.MassBudget)
	}
}

func TestHaloConstraintValidation(t *testing.T) {
	rm := testModel()
	features := []float64{1, 2}
	bad := []HaloConstraint{
		{TBoundary: 0, RefEB: 1, BoundaryCells: []int{1, 2}, MassBudget: 1},
		{TBoundary: 1, RefEB: 0, BoundaryCells: []int{1, 2}, MassBudget: 1},
		{TBoundary: 1, RefEB: 1, BoundaryCells: []int{1}, MassBudget: 1},
		{TBoundary: 1, RefEB: 1, BoundaryCells: []int{1, 2}, MassBudget: 0},
	}
	for i, hc := range bad {
		if _, err := AllocateWithHalo(rm, features, Config{AvgEB: 1}, hc); err == nil {
			t.Errorf("case %d accepted: %+v", i, hc)
		}
	}
}

// Property: for arbitrary feature spreads and budgets, the allocation
// preserves the mean budget, respects the box, and never loses to the
// uniform baseline under the model.
func TestQuickAllocationInvariants(t *testing.T) {
	rm := testModel()
	f := func(seed uint64, avgSeed uint8) bool {
		nParts := 8 + int(seed%56)
		features := spreadFeatures(nParts, seed)
		avg := math.Pow(10, float64(avgSeed%5)-2) // 1e-2 .. 1e2
		res, err := Allocate(rm, features, Config{AvgEB: avg})
		if err != nil {
			return false
		}
		if math.Abs(stats.MeanOf(res.EBs)-avg) > 1e-5*avg {
			return false
		}
		for _, eb := range res.EBs {
			if eb <= 0 || eb < avg/4-1e-9*avg || eb > avg*4+1e-9*avg {
				return false
			}
		}
		return res.PredictedBitRate <= res.UniformBitRate*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the clamp band and mean budget hold for arbitrary clamp
// factors, rate exponents, and allocation strategies — not just the
// defaults. Every violation reports the offending draw.
func TestQuickAllocationRandomizedConfig(t *testing.T) {
	f := func(seed uint64, expSeed, clampSeed, avgSeed uint8) bool {
		r := stats.NewRNG(seed ^ 0xA5A5)
		rm := &model.RateModel{
			// c ∈ [−1.9, −0.1]: the plausible range of measured exponents.
			Exponent: -0.1 - 1.8*float64(expSeed)/255,
			Alpha:    r.Uniform(0.2, 3),
			Beta:     r.Uniform(0.05, 1),
			MinC:     0.01,
		}
		k := 1 + 7*float64(clampSeed)/255 // clamp factor ∈ [1, 8]
		avg := math.Pow(10, 4*float64(avgSeed)/255-2)
		nParts := 4 + int(seed%124)
		features := spreadFeatures(nParts, seed)
		for _, strat := range []Strategy{EqualDerivative, PaperEq16} {
			res, err := Allocate(rm, features, Config{AvgEB: avg, ClampFactor: k, Strategy: strat})
			if err != nil {
				t.Logf("seed %d strat %v: %v", seed, strat, err)
				return false
			}
			if math.Abs(stats.MeanOf(res.EBs)-avg) > 1e-5*avg {
				t.Logf("seed %d strat %v: mean %v != %v", seed, strat, stats.MeanOf(res.EBs), avg)
				return false
			}
			for _, eb := range res.EBs {
				if eb < avg/k*(1-1e-9) || eb > avg*k*(1+1e-9) {
					t.Logf("seed %d strat %v: eb %v outside [%v, %v]", seed, strat, eb, avg/k, avg*k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: with the halo constraint attached, the post-allocation mass
// fault estimate never exceeds the budget, the scale never exceeds 1, and
// the clamp band's lower edge scales down with it (the halo downscale is
// allowed to push bounds below the band: quality may only improve).
func TestQuickHaloBudgetInvariants(t *testing.T) {
	rm := testModel()
	f := func(seed uint64, budgetSeed uint8) bool {
		r := stats.NewRNG(seed ^ 0x5A5A)
		nParts := 4 + int(seed%60)
		features := spreadFeatures(nParts, seed)
		cells := make([]int, nParts)
		for i := range cells {
			cells[i] = r.Intn(2000)
		}
		hc := HaloConstraint{
			TBoundary:     88.16,
			RefEB:         1,
			BoundaryCells: cells,
			MassBudget:    math.Pow(10, 6*float64(budgetSeed)/255-1), // 0.1 .. 1e5
		}
		avg := 0.5
		res, err := AllocateWithHalo(rm, features, Config{AvgEB: avg}, hc)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.HaloScale <= 0 || res.HaloScale > 1 {
			t.Logf("seed %d: halo scale %v out of (0, 1]", seed, res.HaloScale)
			return false
		}
		if res.HaloScaled != (res.HaloScale < 1) {
			t.Logf("seed %d: HaloScaled=%v but scale %v", seed, res.HaloScaled, res.HaloScale)
			return false
		}
		est, err := model.MassFaultFromBoundaryCells(hc.TBoundary, hc.RefEB, cells, res.EBs)
		if err != nil {
			return false
		}
		if est > hc.MassBudget*(1+1e-9) {
			t.Logf("seed %d: estimate %v > budget %v", seed, est, hc.MassBudget)
			return false
		}
		lo, hi := avg/4*res.HaloScale, avg*4*res.HaloScale
		for _, eb := range res.EBs {
			if eb < lo*(1-1e-9) || eb > hi*(1+1e-9) {
				t.Logf("seed %d: eb %v outside scaled band [%v, %v]", seed, eb, lo, hi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// refClampToMean is the allocating clampToMean the in-place one replaced:
// every bisection probe materializes the clamped slice and averages it
// with stats.MeanOf.
func refClampToMean(raw []float64, avg, k float64) []float64 {
	lo, hi := avg/k, avg*k
	clampAt := func(s float64) []float64 {
		out := make([]float64, len(raw))
		for i, v := range raw {
			x := v * s
			if x < lo {
				x = lo
			}
			if x > hi {
				x = hi
			}
			out[i] = x
		}
		return out
	}
	meanAt := func(s float64) float64 { return stats.MeanOf(clampAt(s)) }
	sLo, sHi := 0.0, 1.0
	for meanAt(sHi) < avg && sHi < 1e12 {
		sHi *= 2
	}
	for iter := 0; iter < 100; iter++ {
		mid := (sLo + sHi) / 2
		if meanAt(mid) < avg {
			sLo = mid
		} else {
			sHi = mid
		}
	}
	return clampAt(sHi)
}

// TestClampToMeanMatchesReference: the in-place bisection plans every
// bound bit-identically to the allocating reference, and allocates only
// its result.
func TestClampToMeanMatchesReference(t *testing.T) {
	r := stats.NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(600)
		avg := math.Exp(-8 + 10*r.Float64())
		k := 1 + 20*r.Float64()
		raw := make([]float64, n)
		for i := range raw {
			raw[i] = avg * math.Exp(4*r.NormFloat64())
		}
		got, want := clampToMean(raw, avg, k), refClampToMean(raw, avg, k)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d, avg=%g, k=%g): bound %d is %v, reference %v", trial, n, avg, k, i, got[i], want[i])
			}
		}
	}
	raw := spreadFeatures(512, 3)
	if allocs := testing.AllocsPerRun(10, func() { clampToMean(raw, 0.1, 10) }); allocs > 1 {
		t.Errorf("clampToMean allocates %.0f times per call, want 1 (its result)", allocs)
	}
}
