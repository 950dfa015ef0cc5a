package sz

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/stats"
)

// smoothField builds a field with smooth large-scale structure plus mild
// noise — the regime where Lorenzo prediction works well.
func smoothField(n int, seed uint64) *grid.Field3D {
	r := stats.NewRNG(seed)
	f := grid.NewCube(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := 100*math.Sin(float64(x)/7)*math.Cos(float64(y)/5) +
					50*math.Sin(float64(z)/9) + r.NormFloat64()
				f.Set(x, y, z, float32(v))
			}
		}
	}
	return f
}

func noisyField(n int, seed uint64, scale float64) *grid.Field3D {
	r := stats.NewRNG(seed)
	f := grid.NewCube(n)
	for i := range f.Data {
		f.Data[i] = float32(r.NormFloat64() * scale)
	}
	return f
}

func checkBound(t *testing.T, f *grid.Field3D, opt Options) *Compressed {
	t.Helper()
	c, err := Compress(f, opt)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	g, err := Decompress(c)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !f.SameShape(g) {
		t.Fatalf("shape changed: %v -> %v", f, g)
	}
	switch opt.Mode {
	case ABS:
		mx, _ := stats.MaxAbsError(f.Data, g.Data)
		// Allow the tiniest fp32 slack on top of the guarantee.
		if mx > opt.ErrorBound*(1+1e-5) {
			t.Fatalf("ABS bound violated: max err %v > eb %v", mx, opt.ErrorBound)
		}
	case PWREL:
		rel, _ := stats.MaxRelError(f.Data, g.Data)
		if rel > opt.ErrorBound*(1+1e-4) {
			t.Fatalf("PW_REL bound violated: max rel err %v > eb %v", rel, opt.ErrorBound)
		}
	}
	return c
}

func TestABSRoundTripBounds(t *testing.T) {
	f := smoothField(20, 1)
	for _, eb := range []float64{1e-3, 1e-2, 0.1, 1, 10} {
		checkBound(t, f, Options{Mode: ABS, ErrorBound: eb})
	}
}

// TestABSQuantizeBeforePredict: Lorenzo3D frames are coded by the
// quantize-before-predict (integer lattice) encoder, hold the bound, and
// say so in their flag.
func TestABSQuantizeBeforePredict(t *testing.T) {
	f := smoothField(20, 2)
	for _, eb := range []float64{1e-2, 0.1, 1} {
		c := checkBound(t, f, Options{Mode: ABS, ErrorBound: eb})
		if !c.lattice || c.Bytes()[7]&1 == 0 {
			t.Fatalf("eb %g: Lorenzo frame not coded on the lattice", eb)
		}
	}
}

func TestMeanNeighborPredictor(t *testing.T) {
	f := smoothField(16, 3)
	checkBound(t, f, Options{Mode: ABS, ErrorBound: 0.5, Predictor: MeanNeighbor})
}

func TestPWRELRoundTrip(t *testing.T) {
	r := stats.NewRNG(4)
	f := grid.NewCube(16)
	for i := range f.Data {
		f.Data[i] = float32(math.Exp(r.NormFloat64() * 3)) // lognormal, positive
	}
	for _, eb := range []float64{1e-3, 1e-2, 0.1} {
		checkBound(t, f, Options{Mode: PWREL, ErrorBound: eb})
	}
}

func TestPWRELRejectsNonPositive(t *testing.T) {
	f := grid.NewCube(4)
	f.Fill(1)
	f.Data[7] = 0
	if _, err := Compress(f, Options{Mode: PWREL, ErrorBound: 0.1}); err == nil {
		t.Fatal("PW_REL accepted zero value")
	}
	f.Data[7] = -3
	if _, err := Compress(f, Options{Mode: PWREL, ErrorBound: 0.1}); err == nil {
		t.Fatal("PW_REL accepted negative value")
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []Options{
		{Mode: ABS, ErrorBound: 0},
		{Mode: ABS, ErrorBound: -1},
		{Mode: PWREL, ErrorBound: 1.5},
		{Mode: Mode(9), ErrorBound: 1},
		{Mode: ABS, ErrorBound: 1, Predictor: Predictor(9)},
		{Mode: ABS, ErrorBound: 1, Radius: 1},
	}
	for i, opt := range cases {
		if err := opt.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	if err := (Options{Mode: ABS, ErrorBound: 0.5}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestCompressShapeMismatch(t *testing.T) {
	if _, err := CompressSlice(make([]float32, 10), 2, 2, 2, Options{Mode: ABS, ErrorBound: 1}); err == nil {
		t.Fatal("length/dims mismatch accepted")
	}
	if _, err := CompressSlice(nil, 0, 0, 0, Options{Mode: ABS, ErrorBound: 1}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestConstantFieldCompressesExtremely(t *testing.T) {
	f := grid.NewCube(32)
	f.Fill(42)
	c := checkBound(t, f, Options{Mode: ABS, ErrorBound: 1e-3})
	if c.Ratio() < 200 {
		t.Errorf("constant field ratio = %.1f, expected very high", c.Ratio())
	}
}

func TestSmoothFieldBeatsNoisyField(t *testing.T) {
	opt := Options{Mode: ABS, ErrorBound: 0.1}
	smooth := checkBound(t, smoothField(24, 5), opt)
	noisy := checkBound(t, noisyField(24, 6, 100), opt)
	if smooth.Ratio() <= noisy.Ratio() {
		t.Errorf("smooth ratio %.2f <= noisy ratio %.2f", smooth.Ratio(), noisy.Ratio())
	}
}

func TestRatioGrowsWithErrorBound(t *testing.T) {
	f := smoothField(24, 7)
	prev := 0.0
	for _, eb := range []float64{1e-3, 1e-2, 1e-1, 1} {
		c := checkBound(t, f, Options{Mode: ABS, ErrorBound: eb})
		if c.Ratio() < prev {
			t.Errorf("ratio decreased at eb=%v: %.2f < %.2f", eb, c.Ratio(), prev)
		}
		prev = c.Ratio()
	}
}

func TestSubOneBitRate(t *testing.T) {
	// At a generous bound on smooth data, the RLE stage must push the bit
	// rate below 1 bit/value (paper ratios reach 82×).
	f := smoothField(32, 8)
	c := checkBound(t, f, Options{Mode: ABS, ErrorBound: 200})
	if br := c.BitRate(); br >= 1 {
		t.Errorf("bit rate %.3f >= 1; RLE stage ineffective", br)
	}
}

func TestErrorDistributionUniform(t *testing.T) {
	// Paper Fig. 3: SZ error is ~uniform in [-eb, eb] at moderate bounds.
	f := smoothField(32, 9)
	eb := 0.5
	c := checkBound(t, f, Options{Mode: ABS, ErrorBound: eb})
	g, _ := Decompress(c)
	h, _ := stats.NewHistogram(-eb, eb, 20)
	for i := range f.Data {
		h.Add(float64(f.Data[i]) - float64(g.Data[i]))
	}
	if dev := h.MaxDeviationFromUniform(); dev > 0.02 {
		t.Errorf("error distribution deviates %.4f from uniform", dev)
	}
	// Variance should be close to eb²/3.
	var m stats.Moments
	for i := range f.Data {
		m.Add(float64(f.Data[i]) - float64(g.Data[i]))
	}
	want := stats.UniformVariance(eb)
	if math.Abs(m.Variance()-want) > 0.05*want {
		t.Errorf("error variance %v, uniform model %v", m.Variance(), want)
	}
}

func TestBytesParseRoundTrip(t *testing.T) {
	f := smoothField(16, 10)
	c := checkBound(t, f, Options{Mode: ABS, ErrorBound: 0.25})
	blob := c.Bytes()
	if len(blob) != c.CompressedSize() {
		t.Errorf("Bytes len %d != CompressedSize %d", len(blob), c.CompressedSize())
	}
	c2, err := Parse(blob)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g1, _ := Decompress(c)
	g2, err := Decompress(c2)
	if err != nil {
		t.Fatalf("decompress parsed: %v", err)
	}
	if !bytes.Equal(float32Bytes(g1.Data), float32Bytes(g2.Data)) {
		t.Fatal("parsed stream decodes differently")
	}
}

func float32Bytes(xs []float32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		out = appendFloat32(out, x)
	}
	return out
}

func TestParseRejectsCorruption(t *testing.T) {
	f := smoothField(12, 11)
	c, _ := Compress(f, Options{Mode: ABS, ErrorBound: 0.5})
	blob := c.Bytes()

	cases := map[string]func([]byte) []byte{
		"truncated header":  func(b []byte) []byte { return b[:20] },
		"bad magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":       func(b []byte) []byte { b[4] = 99; return b },
		"payload bit flip":  func(b []byte) []byte { b[len(b)-5] ^= 0xFF; return b },
		"truncated payload": func(b []byte) []byte { return b[:len(b)-3] },
		"crc flip":          func(b []byte) []byte { b[49] ^= 0x01; return b },
	}
	for name, corrupt := range cases {
		bad := corrupt(bytes.Clone(blob))
		if _, err := Parse(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecompressTamperedStreamNoPanic(t *testing.T) {
	// Even if the CRC were bypassed, decompression must error, not panic.
	f := smoothField(12, 12)
	c, _ := Compress(f, Options{Mode: ABS, ErrorBound: 0.5})
	c.outliers = c.outliers[:0]                       // drop outliers
	c.codeStream = c.codeStream[:len(c.codeStream)/2] // truncate codes
	if _, err := DecompressSlice(c); err == nil {
		t.Log("tampered stream happened to decode; acceptable as long as no panic")
	}
}

func TestRLERoundTrip(t *testing.T) {
	const hit, base = 5, 10
	cases := [][]int{
		{},
		{5},
		{5, 5},
		{1, 5, 5, 5, 5, 5, 2},
		{5, 5, 5, 5, 5, 5, 5}, // 7 = 4+2+1
		{0, 1, 2, 3, 4},
	}
	for i, sym := range cases {
		enc := rleEncode(sym, hit, base)
		dec, err := rleDecode(enc, hit, base, len(sym))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for j := range sym {
			if dec[j] != sym[j] {
				t.Fatalf("case %d mismatch at %d", i, j)
			}
		}
	}
}

func TestRLELongRun(t *testing.T) {
	const hit, base = 3, 10
	sym := make([]int, 1<<20)
	for i := range sym {
		sym[i] = hit
	}
	enc := rleEncode(sym, hit, base)
	if len(enc) > 4 {
		t.Errorf("1M-run encoded to %d tokens, want ≤ 4", len(enc))
	}
	dec, err := rleDecode(enc, hit, base, len(sym))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(sym) {
		t.Fatalf("len %d", len(dec))
	}
}

func TestRLEDecodeErrors(t *testing.T) {
	const hit, base = 3, 10
	if _, err := rleDecode([]int{base + maxRunExp + 1}, hit, base, 4); err == nil {
		t.Error("out-of-alphabet token accepted")
	}
	if _, err := rleDecode([]int{base}, hit, base, 1); err == nil {
		t.Error("run token of exponent 0 accepted")
	}
	if _, err := rleDecode([]int{base + 1, base + 1}, hit, base, 3); err == nil {
		t.Error("overflowing run accepted")
	}
	if _, err := rleDecode([]int{hit}, hit, base, 2); err == nil {
		t.Error("short stream accepted")
	}
}

func TestNonCubicBricks(t *testing.T) {
	// Partition bricks are not always cubes (remainder bricks).
	r := stats.NewRNG(13)
	for _, dims := range [][3]int{{7, 5, 3}, {1, 1, 64}, {64, 1, 1}, {2, 9, 2}, {1, 1, 1}} {
		n := dims[0] * dims[1] * dims[2]
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(r.NormFloat64() * 10)
		}
		c, err := CompressSlice(data, dims[0], dims[1], dims[2], Options{Mode: ABS, ErrorBound: 0.1})
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		got, err := DecompressSlice(c)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		mx, _ := stats.MaxAbsError(data, got)
		if mx > 0.1*(1+1e-5) {
			t.Fatalf("dims %v: bound violated (%v)", dims, mx)
		}
	}
}

func TestSmallRadiusForcesOutliers(t *testing.T) {
	// A tiny radius forces most residuals into the outlier path; the bound
	// must still hold exactly (outliers are verbatim).
	f := noisyField(12, 14, 1000)
	c := checkBound(t, f, Options{Mode: ABS, ErrorBound: 1e-4, Radius: 2})
	if c.Ratio() > 1.5 {
		t.Logf("ratio %.2f (outlier-dominated, as expected)", c.Ratio())
	}
}

// Property: the ABS error bound holds for arbitrary data and bounds.
func TestQuickABSBound(t *testing.T) {
	f := func(raw []float32, ebSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		for i, v := range raw {
			f64 := float64(v)
			if math.IsNaN(f64) || math.IsInf(f64, 0) || math.Abs(f64) > 1e30 {
				raw[i] = 0
			}
		}
		eb := math.Pow(10, float64(ebSeed%8)-4) // 1e-4 .. 1e3
		c, err := CompressSlice(raw, len(raw), 1, 1, Options{Mode: ABS, ErrorBound: eb})
		if err != nil {
			return false
		}
		got, err := DecompressSlice(c)
		if err != nil {
			return false
		}
		mx, _ := stats.MaxAbsError(raw, got)
		return mx <= eb*(1+1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: serialization round-trips bit-exactly.
func TestQuickStreamRoundTrip(t *testing.T) {
	r := stats.NewRNG(15)
	f := func(seed uint16) bool {
		data := make([]float32, 64)
		for i := range data {
			data[i] = float32(r.NormFloat64()*float64(seed%100) + 1)
		}
		c, err := CompressSlice(data, 4, 4, 4, Options{Mode: ABS, ErrorBound: 0.5})
		if err != nil {
			return false
		}
		c2, err := Parse(c.Bytes())
		if err != nil {
			return false
		}
		a, err1 := DecompressSlice(c)
		b, err2 := DecompressSlice(c2)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitRateAndRatioConsistency(t *testing.T) {
	f := smoothField(16, 16)
	c := checkBound(t, f, Options{Mode: ABS, ErrorBound: 0.1})
	wantBR := float64(c.CompressedSize()) * 8 / float64(f.Len())
	if math.Abs(c.BitRate()-wantBR) > 1e-12 {
		t.Errorf("BitRate inconsistent")
	}
	wantRatio := 32 / wantBR
	if math.Abs(c.Ratio()-wantRatio) > 1e-9 {
		t.Errorf("Ratio %v inconsistent with bit rate %v", c.Ratio(), c.BitRate())
	}
}
