package nyx

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

func genTest(t *testing.T, p Params) *Snapshot {
	t.Helper()
	s, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateAllFields(t *testing.T) {
	s := genTest(t, Params{N: 32, Seed: 1, Redshift: 42})
	if len(s.Fields) != 6 {
		t.Fatalf("generated %d fields, want 6", len(s.Fields))
	}
	for _, name := range FieldNames {
		f, err := s.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Nx != 32 || f.Ny != 32 || f.Nz != 32 {
			t.Errorf("%s: wrong shape %v", name, f)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := s.Field("no_such_field"); err == nil {
		t.Error("unknown field name accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := genTest(t, Params{N: 16, Seed: 7, Redshift: 50})
	b := genTest(t, Params{N: 16, Seed: 7, Redshift: 50})
	for _, name := range FieldNames {
		fa, _ := a.Field(name)
		fb, _ := b.Field(name)
		for i := range fa.Data {
			if fa.Data[i] != fb.Data[i] {
				t.Fatalf("%s differs at %d with same seed", name, i)
			}
		}
	}
	c := genTest(t, Params{N: 16, Seed: 8, Redshift: 50})
	fa, _ := a.Field(FieldBaryonDensity)
	fc, _ := c.Field(FieldBaryonDensity)
	same := 0
	for i := range fa.Data {
		if fa.Data[i] == fc.Data[i] {
			same++
		}
	}
	if same == len(fa.Data) {
		t.Error("different seeds produced identical fields")
	}
}

func TestValueRangesMatchTable2(t *testing.T) {
	s := genTest(t, Params{N: 48, Seed: 2, Redshift: 42})
	checks := []struct {
		name   string
		lo, hi float64
	}{
		{FieldBaryonDensity, 0, 1e5},
		{FieldDarkMatterDensity, 0, 1e4},
		{FieldTemperature, 1e2, 1e7},
		{FieldVelocityX, -1e8, 1e8},
		{FieldVelocityY, -1e8, 1e8},
		{FieldVelocityZ, -1e8, 1e8},
	}
	for _, c := range checks {
		f, _ := s.Field(c.name)
		lo, hi := f.MinMax()
		if float64(lo) < c.lo || float64(hi) > c.hi {
			t.Errorf("%s range [%g, %g] outside Table 2 range [%g, %g]",
				c.name, lo, hi, c.lo, c.hi)
		}
	}
	// Densities must be strictly positive.
	for _, name := range []string{FieldBaryonDensity, FieldDarkMatterDensity} {
		f, _ := s.Field(name)
		lo, _ := f.MinMax()
		if lo <= 0 {
			t.Errorf("%s has non-positive values", name)
		}
	}
}

func TestDensityMeanNearOne(t *testing.T) {
	// The lognormal construction fixes the mean at 1 (up to sampling
	// noise and tail clipping), matching the paper's "fixed overall mean".
	s := genTest(t, Params{N: 48, Seed: 3, Redshift: 42})
	f, _ := s.Field(FieldBaryonDensity)
	if m := f.Mean(); m < 0.5 || m > 2.0 {
		t.Errorf("baryon density mean %v, want ≈1", m)
	}
}

func TestHeavyTailAndHeterogeneity(t *testing.T) {
	// The density field must be heavy-tailed (halos) and spatially
	// heterogeneous across partitions (the property the paper exploits).
	s := genTest(t, Params{N: 48, Seed: 4, Redshift: 42})
	f, _ := s.Field(FieldBaryonDensity)
	_, hi := f.MinMax()
	if float64(hi) < 100 {
		t.Errorf("density max %v: no dense regions formed", hi)
	}
	p, _ := grid.NewCubePartitioner(48, 4)
	var means []float64
	for _, part := range p.Partitions() {
		mean, _ := grid.Scan(f, part, grid.Band{})
		means = append(means, mean)
	}
	var m stats.Moments
	for _, v := range means {
		m.Add(v)
	}
	if m.StdDev() < 0.1*m.Mean() {
		t.Errorf("partition means too homogeneous: mean %v sd %v", m.Mean(), m.StdDev())
	}
}

func TestPowerSpectrumFalls(t *testing.T) {
	// The density contrast must have a falling spectrum: large scales
	// carry more power than small scales.
	s := genTest(t, Params{N: 64, Seed: 5, Redshift: 42})
	f, _ := s.Field(FieldBaryonDensity)
	sp, err := spectrum.Compute(f, spectrum.Options{Contrast: true})
	if err != nil {
		t.Fatal(err)
	}
	lowBand := (sp.P[2] + sp.P[3] + sp.P[4]) / 3
	hiBand := (sp.P[20] + sp.P[21] + sp.P[22]) / 3
	if lowBand <= hiBand {
		t.Errorf("spectrum not falling: low %g vs high %g", lowBand, hiBand)
	}
}

func TestRedshiftEvolution(t *testing.T) {
	// Earlier (higher z) snapshots must be smoother: smaller density
	// variance, fewer candidate cells.
	early := genTest(t, Params{N: 32, Seed: 6, Redshift: 54})
	late := genTest(t, Params{N: 32, Seed: 6, Redshift: 42})
	fe, _ := early.Field(FieldBaryonDensity)
	fl, _ := late.Field(FieldBaryonDensity)
	me := fe.Moments()
	ml := fl.Moments()
	if me.Variance() >= ml.Variance() {
		t.Errorf("early variance %v not below late %v", me.Variance(), ml.Variance())
	}
	bt, _ := DefaultHaloConfig()
	if halo.CandidateCount(fe, bt) > halo.CandidateCount(fl, bt) {
		t.Error("early snapshot has more halo candidates than late")
	}
}

func TestHalosExist(t *testing.T) {
	s := genTest(t, Params{N: 64, Seed: 7, Redshift: 42})
	f, _ := s.Field(FieldBaryonDensity)
	bt, pt := DefaultHaloConfig()
	cat, err := halo.Find(f, halo.Config{BoundaryThreshold: bt, HaloThreshold: pt, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Count() == 0 {
		t.Error("no halos in generated snapshot")
	}
	if cat.Candidates == 0 {
		t.Error("no candidate cells")
	}
}

func TestVelocityZeroMean(t *testing.T) {
	s := genTest(t, Params{N: 32, Seed: 8, Redshift: 42})
	for _, name := range []string{FieldVelocityX, FieldVelocityY, FieldVelocityZ} {
		f, _ := s.Field(name)
		var m stats.Moments
		m.AddSlice(f.Data)
		if math.Abs(m.Mean()) > 0.05*m.StdDev() {
			t.Errorf("%s mean %g not ≈0 (sd %g)", name, m.Mean(), m.StdDev())
		}
	}
}

func TestGenerateSequenceSharesICs(t *testing.T) {
	snaps, err := GenerateSequence(Params{N: 16, Seed: 9}, []float64{54, 48, 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	// Same ICs: the density fields must be strongly correlated across z.
	a, _ := snaps[0].Field(FieldBaryonDensity)
	b, _ := snaps[2].Field(FieldBaryonDensity)
	var corrNum, va, vb float64
	ma, mb := a.Mean(), b.Mean()
	for i := range a.Data {
		da := float64(a.Data[i]) - ma
		db := float64(b.Data[i]) - mb
		corrNum += da * db
		va += da * da
		vb += db * db
	}
	corr := corrNum / math.Sqrt(va*vb)
	if corr < 0.3 {
		t.Errorf("cross-redshift correlation %v too low for shared ICs", corr)
	}
}

func TestParamsValidate(t *testing.T) {
	if _, err := Generate(Params{N: 2}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := Generate(Params{N: 16, Redshift: -1}); err == nil {
		t.Error("negative redshift accepted")
	}
}

func TestNonPowerOfTwoGrid(t *testing.T) {
	// Bluestein path: any N works.
	s := genTest(t, Params{N: 12, Seed: 10, Redshift: 42})
	f, _ := s.Field(FieldTemperature)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthFactor(t *testing.T) {
	if g := growthFactor(42, 42); g != 1 {
		t.Errorf("growth at ref = %v", g)
	}
	if growthFactor(54, 42) >= 1 {
		t.Error("earlier redshift should have growth < 1")
	}
	if growthFactor(10, 42) <= 1 {
		t.Error("later redshift should have growth > 1")
	}
}
