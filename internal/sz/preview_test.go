package sz

import (
	"errors"
	"math"
	"testing"

	"repro/internal/apierr"
	"repro/internal/grid"
)

// previewField is a bumpy but predictable field: smooth background with a
// few sharp spikes, so the token stream has both a wide correction octave
// range and genuine outliers.
func previewField(n int) *grid.Field3D {
	f := grid.NewCube(n)
	for i := range f.Data {
		x, y, z := f.Coords(i)
		f.Data[i] = float32(math.Sin(float64(x)*0.4)*math.Cos(float64(y)*0.3) + 0.1*float64(z))
	}
	for _, spike := range []int{17, 301, 1189, 2945} {
		if spike < len(f.Data) {
			f.Data[spike] += 500
		}
	}
	return f
}

func TestDecompressPreviewConvergesToExact(t *testing.T) {
	f := previewField(16)
	for _, tc := range []struct {
		opt Options
		// flag0 writes a reconstructed-value (flag-0) Lorenzo frame, as
		// older archives hold, through the reference encoder.
		flag0 bool
	}{
		{Options{Mode: ABS, ErrorBound: 1e-3}, false},
		{Options{Mode: ABS, ErrorBound: 1e-3}, true},
		{Options{Mode: ABS, ErrorBound: 1e-4, Predictor: MeanNeighbor}, false},
	} {
		opt := tc.opt
		c, err := Compress(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if tc.flag0 {
			c = compressReconstructedValue(f.Data, f.Nx, f.Ny, f.Nz, opt)
		}
		exact, err := Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		// Enough octaves to cover any correction magnitude: the preview
		// must be bit-identical to the full decode, with nothing dropped.
		full, info, err := DecompressPreview(c, 32)
		if err != nil {
			t.Fatal(err)
		}
		if info.DroppedCorrections != 0 || info.Threshold != 1 {
			t.Fatalf("%+v: full-depth preview dropped %d corrections (threshold %d)",
				opt, info.DroppedCorrections, info.Threshold)
		}
		for i := range exact.Data {
			if exact.Data[i] != full.Data[i] {
				t.Fatalf("%+v: full-depth preview diverges from Decompress at cell %d", opt, i)
			}
		}
	}
}

func TestDecompressPreviewCoarsensMonotonically(t *testing.T) {
	f := previewField(16)
	c, err := Compress(f, Options{Mode: ABS, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := func(g *grid.Field3D) float64 {
		var m float64
		for i := range g.Data {
			if d := math.Abs(float64(g.Data[i]) - float64(exact.Data[i])); d > m {
				m = d
			}
		}
		return m
	}
	prevKept := -1
	for _, oct := range []int{1, 2, 4, 8} {
		g, info, err := DecompressPreview(c, oct)
		if err != nil {
			t.Fatalf("octaves %d: %v", oct, err)
		}
		if info.KeptCorrections < prevKept {
			t.Fatalf("octaves %d keeps %d corrections, fewer than the coarser rung's %d",
				oct, info.KeptCorrections, prevKept)
		}
		prevKept = info.KeptCorrections
		for i := range g.Data {
			if math.IsNaN(float64(g.Data[i])) || math.IsInf(float64(g.Data[i]), 0) {
				t.Fatalf("octaves %d: non-finite preview value at cell %d", oct, i)
			}
		}
		t.Logf("octaves %d: threshold %d, kept %d dropped %d outliers %d, maxErr %.3g",
			oct, info.Threshold, info.KeptCorrections, info.DroppedCorrections, info.Outliers, maxErr(g))
	}
	// The coarsest rung must actually coarsen on this field (there is more
	// than one correction octave), and still preserve the spikes' scale.
	g1, info1, err := DecompressPreview(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info1.DroppedCorrections == 0 {
		t.Fatal("octave-1 preview dropped nothing — test field has no octave spread")
	}
	if info1.Outliers == 0 {
		t.Fatal("test field produced no outliers")
	}
	var gotSpike bool
	for _, v := range g1.Data {
		if v > 250 {
			gotSpike = true
			break
		}
	}
	if !gotSpike {
		t.Fatal("outlier spikes lost in the coarsest preview")
	}
}

func TestDecompressPreviewPWREL(t *testing.T) {
	f := grid.NewCube(12)
	for i := range f.Data {
		x, y, z := f.Coords(i)
		f.Data[i] = float32(1 + x + 10*y + 100*z)
	}
	c, err := Compress(f, Options{Mode: PWREL, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := DecompressPreview(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data {
		if v <= 0 || math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			t.Fatalf("PW_REL preview produced non-positive/non-finite value %v at cell %d", v, i)
		}
	}
}

func TestDecompressPreviewRejectsBadOctaves(t *testing.T) {
	f := previewField(8)
	c, err := Compress(f, Options{Mode: ABS, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, oct := range []int{0, -1} {
		if _, _, err := DecompressPreview(c, oct); !errors.Is(err, apierr.ErrBadConfig) {
			t.Errorf("octaves %d: got %v, want ErrBadConfig", oct, err)
		}
	}
}
