package sz

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/stats"
)

// specialValues are the cells that push the lattice coordinate outside the
// int64 range or make it meaningless.
var specialValues = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	1e30, -1e30, math.MaxFloat32, -math.MaxFloat32,
}

// randomBrick draws dims in 1…20 and a smooth-plus-noise field with a
// sprinkling of specialValues, at a random bound and radius.
func randomBrick(r *stats.RNG) (data []float32, nx, ny, nz int, opt Options) {
	nx, ny, nz = 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
	data = make([]float32, nx*ny*nz)
	amp := math.Pow(10, r.Uniform(-1, 3))
	noise := math.Pow(10, r.Uniform(-3, 1))
	for i := range data {
		x, y, z := i%nx, (i/nx)%ny, i/(nx*ny)
		v := amp*math.Sin(float64(x)/5)*math.Cos(float64(y)/3) + amp*math.Sin(float64(z)/7) +
			noise*r.NormFloat64()
		data[i] = float32(v)
		if r.Float64() < 0.02 {
			data[i] = specialValues[r.Intn(len(specialValues))]
		}
	}
	opt = Options{
		Mode:       ABS,
		ErrorBound: math.Pow(10, r.Uniform(-3, 1)),
		Radius:     []int{4, 64, 1024, 0}[r.Intn(4)],
	}
	return data, nx, ny, nz, opt
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// TestLatticeEncoderMatchesReference holds the zero-haloed lattice encoder
// and decoder to the per-cell reference loops: the same symbols, the same
// outlier bytes and the same reconstruction bits, on ragged bricks with
// NaN, ±Inf and huge cells and on every radius regime. One scratch serves
// every brick, so a stale halo from a differently shaped brick shows.
func TestLatticeEncoderMatchesReference(t *testing.T) {
	r := stats.NewRNG(37)
	var s Scratch
	for trial := 0; trial < 400; trial++ {
		data, nx, ny, nz, opt := randomBrick(r)
		eb := opt.ErrorBound
		wantSyms, wantOut := refQuantizeThenPredict(data, nx, ny, nz, eb, opt.radius())

		c, err := CompressSliceWith(data, nx, ny, nz, opt, &s)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.symbols[:len(data)], wantSyms) {
			t.Fatalf("trial %d (%d×%d×%d, %+v): symbols differ from the reference", trial, nx, ny, nz, opt)
		}
		if !bytes.Equal(c.outliers, wantOut) {
			t.Fatalf("trial %d: outlier bytes differ from the reference", trial)
		}
		if !bytes.Equal(c.Bytes(), refFrame(wantSyms, wantOut, nx, ny, nz, opt, true).Bytes()) {
			t.Fatalf("trial %d: frame bytes differ from the reference", trial)
		}

		want, err := refReconstructLattice(wantSyms, wantOut, nx, ny, nz, eb, opt.radius())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressSlice(c)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("trial %d: reconstruction bits differ from the reference", trial)
		}
		for i, v := range data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				if math.Float32bits(got[i]) != math.Float32bits(v) {
					t.Fatalf("trial %d cell %d: %v decoded as %v", trial, i, v, got[i])
				}
			} else if math.Abs(float64(got[i])-float64(v)) > eb {
				t.Fatalf("trial %d cell %d: error %g > eb %g", trial, i, math.Abs(float64(got[i])-float64(v)), eb)
			}
		}
	}
}

// TestReconstructedValueReference checks the other half of the decode
// contract: frames the reference reconstructed-value encoder writes, with
// either predictor, carry flag 0 and decode through reconstructDirect's
// single per-cell loop to the encoder's own reconstruction (whose Lorenzo
// interior is split), bit for bit.
func TestReconstructedValueReference(t *testing.T) {
	r := stats.NewRNG(38)
	for trial := 0; trial < 200; trial++ {
		data, nx, ny, nz, opt := randomBrick(r)
		p := Lorenzo3D
		if trial%4 == 3 {
			p = meanNeighbor
		}
		_, _, wantRecon := refPredictThenQuantize(data, nx, ny, nz, opt.ErrorBound, opt, p)

		blob := compressReconstructedValue(data, nx, ny, nz, opt, p).Bytes()
		if blob[6] != byte(p) || blob[7] != 0 {
			t.Fatalf("trial %d: reconstructed-value frame has predictor %d, flags %#x", trial, blob[6], blob[7])
		}
		c, err := Parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressSlice(c)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, wantRecon) {
			t.Fatalf("trial %d: flag-0 frame decodes differently from its encoder", trial)
		}
	}
}

// TestFrameFlags: every new frame is a Lorenzo lattice frame (predictor
// byte 0, flag bit0 set) in either mode.
func TestFrameFlags(t *testing.T) {
	f := smoothField(12, 40)
	for _, mode := range []Mode{ABS, PWREL} {
		data := f.Data
		if mode == PWREL {
			data = make([]float32, len(f.Data))
			for i, v := range f.Data {
				data[i] = float32(math.Exp(float64(v) / 50))
			}
		}
		c, err := CompressSlice(data, f.Nx, f.Ny, f.Nz, Options{Mode: mode, ErrorBound: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if hdr := c.Bytes(); hdr[6] != byte(Lorenzo3D) || hdr[7] != 1 {
			t.Errorf("%v: predictor %d, flags %#x, want 0 and 0x1", mode, hdr[6], hdr[7])
		}
	}
}

// TestLegacyLatticeMeanNeighborFrame: before the flag moved off Options, a
// MeanNeighbor request with quantize-before-predict set was silently coded
// as lattice Lorenzo with the predictor byte left at MeanNeighbor. Such
// frames must keep decoding as lattice Lorenzo.
func TestLegacyLatticeMeanNeighborFrame(t *testing.T) {
	f := smoothField(12, 41)
	c, err := Compress(f, Options{Mode: ABS, ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecompressSlice(c)
	if err != nil {
		t.Fatal(err)
	}
	blob := c.Bytes()
	blob[6] = byte(meanNeighbor)
	legacy, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.predictor != meanNeighbor || !legacy.lattice {
		t.Fatalf("parsed predictor %v, lattice %v", legacy.predictor, legacy.lattice)
	}
	got, err := DecompressSlice(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("legacy flag-1 MeanNeighbor frame no longer decodes as lattice Lorenzo")
	}
}

// latticeProbes are values and 2·eb steps around every edge of the int64
// range, plus the specials.
func latticeProbes() (vals []float32, steps []float64) {
	vals = append([]float32{0, float32(math.Copysign(0, -1)), 1e-30, -1e-30, 0.05, -0.05,
		0.15, -0.15, 1, -1, 12345.678, -12345.678, 9.2e18, -9.2e18, 9.3e18, -9.3e18,
		0x1p62, -0x1p62, 0x1p63, -0x1p63, 0x1p64, -0x1p64}, specialValues...)
	steps = []float64{1e-30, 1e-9, 1e-3, 0.1, 2, 1e10, 1e30}
	return vals, steps
}

// TestLatticeCoordMatchesAMD64 pins the shared conversion to what amd64's
// raw float-to-int64 conversion has always produced, so frames written
// before the helper existed keep their bytes.
func TestLatticeCoordMatchesAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the raw conversion is only defined by the CPU; amd64 is the reference")
	}
	vals, steps := latticeProbes()
	for _, v := range vals {
		for _, step := range steps {
			raw := int64(math.Floor(float64(v)/step + 0.5))
			if got := latticeCoord(v, step); got != raw {
				t.Errorf("latticeCoord(%g, %g) = %d, raw conversion %d", v, step, got, raw)
			}
		}
	}
}

// TestLatticeCoordOutOfRange states the contract on every CPU: a rounded
// quotient that is NaN or outside [−2⁶³, 2⁶³) maps to math.MinInt64, and
// everything in range converts exactly.
func TestLatticeCoordOutOfRange(t *testing.T) {
	vals, steps := latticeProbes()
	for _, v := range vals {
		for _, step := range steps {
			f := math.Floor(float64(v)/step + 0.5)
			want := int64(math.MinInt64)
			if f >= -0x1p63 && f < 0x1p63 {
				want = int64(f)
			}
			if got := latticeCoord(v, step); got != want {
				t.Errorf("latticeCoord(%g, %g) = %d, want %d", v, step, got, want)
			}
		}
	}
	for _, v := range specialValues[:3] {
		if got := latticeCoord(v, 0.1); got != math.MinInt64 {
			t.Errorf("latticeCoord(%v) = %d, want MinInt64", v, got)
		}
	}
}

// TestNonFiniteRoundTrip compresses bricks made of NaN, ±Inf and
// ±MaxFloat32 among ordinary cells: non-finite cells come back bit for
// bit, finite ones within the bound, and the frame re-parses to the same
// reconstruction.
func TestNonFiniteRoundTrip(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32}
	for si, sv := range specials {
		for _, eb := range []float64{1e-3, 0.5, 1e30} {
			f := smoothField(9, uint64(50+si))
			for i := range f.Data {
				if i%3 == 0 || i%7 == 0 {
					f.Data[i] = sv
				}
			}
			c, err := Compress(f, Options{Mode: ABS, ErrorBound: eb})
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(c.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecompressSlice(parsed)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range f.Data {
				fv := float64(v)
				if math.IsNaN(fv) || math.IsInf(fv, 0) {
					if math.Float32bits(got[i]) != math.Float32bits(v) {
						t.Fatalf("%v eb %g cell %d: decoded %v", sv, eb, i, got[i])
					}
				} else if d := math.Abs(float64(got[i]) - fv); d > eb {
					t.Fatalf("%v eb %g cell %d: error %g", sv, eb, i, d)
				}
			}
		}
	}
}
