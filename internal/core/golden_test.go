package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
)

// Golden-file tests: committed archive fixtures that today's readers must
// keep decoding bit-exactly. They are the format-stability contract for
// archive v2 (single field) and v3 (multi-snapshot stream) across future
// PRs — a change that re-encodes differently is visible (the writer check),
// and a change that decodes differently is a regression (the reader check).
//
// Regenerate the live fixtures with:
//
//	go test ./internal/core -run TestGolden -update-golden
//
// and commit the new fixtures together with the format change that
// motivated them. Frozen fixtures (golden_sz.* and golden_stream.*) hold
// reconstructed-value (flag-0) SZ frames, which no current encoder writes:
// they are the decode contract for archives written before the integer
// lattice became the only Lorenzo encoder, and -update-golden leaves them
// alone.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden archive fixtures")

// goldenField is a small fully deterministic field (no RNG, no FFT): a
// smooth ramp with one sharp blob, so partitions differ in compressibility.
func goldenField() *grid.Field3D {
	f := grid.NewCube(16)
	for i := range f.Data {
		x, y, z := f.Coords(i)
		v := math.Sin(0.4*float64(x)) + 0.25*float64(y) + 0.1*float64(z)
		dx, dy, dz := float64(x-4), float64(y-11), float64(z-6)
		v += 8 * math.Exp(-(dx*dx+dy*dy+dz*dz)/9)
		f.Data[i] = float32(v)
	}
	return f
}

// goldenStep builds step t of the golden stream: the base field scaled and
// shifted deterministically.
func goldenStep(t int) *grid.Field3D {
	f := goldenField()
	for i := range f.Data {
		f.Data[i] = f.Data[i]*float32(1+0.1*float64(t)) + float32(t)
	}
	return f
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

// writeOrReadGolden reads a fixture, first rewriting it from gen under
// -update-golden. A nil gen marks a frozen fixture.
func writeOrReadGolden(t *testing.T, name string, gen func() []byte) []byte {
	t.Helper()
	path := goldenPath(t, name)
	if *updateGolden && gen != nil {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gen(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create fixtures)", err)
	}
	return data
}

func float32le(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// TestGoldenArchiveV2 pins the single-field archive format for both
// backends: each committed fixture must decode bit-exactly to the committed
// reconstruction, and re-encoding the parsed archive must reproduce the
// fixture byte for byte. A live fixture must also equal a fresh
// compression of the golden field, so any change to the bytes today's
// encoders write fails here.
func TestGoldenArchiveV2(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   codec.ID
		live bool
	}{
		{"sz", codec.SZ, false}, // frozen: reconstructed-value Lorenzo frames
		{"zfp", codec.ZFP, true},
		{"sz_lattice", codec.SZ, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine(t, Config{PartitionDim: 8, Codec: tc.id})
			compress := func() *CompressedField {
				cf, err := e.CompressStatic(context.Background(), goldenField(), 0.05)
				if err != nil {
					t.Fatal(err)
				}
				return cf
			}
			var genArchive, genExpect func() []byte
			if tc.live {
				genArchive = func() []byte { return compress().Bytes() }
				genExpect = func() []byte {
					recon, err := compress().Decompress(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return float32le(recon.Data)
				}
			}
			archive := writeOrReadGolden(t, fmt.Sprintf("golden_%s.acfd", tc.name), genArchive)
			expect := writeOrReadGolden(t, fmt.Sprintf("golden_%s.f32", tc.name), genExpect)

			if tc.live {
				if got := compress().Bytes(); !bytes.Equal(got, archive) {
					t.Errorf("a fresh compression differs from the fixture in %d of %d bytes",
						diffCount(got, archive), len(archive))
				}
			}
			cf, err := ParseCompressedField(archive)
			if err != nil {
				t.Fatalf("fixture no longer parses: %v", err)
			}
			if cf.Codec != tc.id {
				t.Errorf("fixture codec %q, want %q", cf.Codec, tc.id)
			}
			if got := cf.Bytes(); !bytes.Equal(got, archive) {
				t.Errorf("re-encoding the fixture changed %d of %d bytes",
					diffCount(got, archive), len(archive))
			}
			recon, err := cf.Decompress(context.Background())
			if err != nil {
				t.Fatalf("fixture no longer decompresses: %v", err)
			}
			if got := float32le(recon.Data); !bytes.Equal(got, expect) {
				t.Errorf("fixture decodes to different values (%d of %d bytes differ)",
					diffCount(got, expect), len(expect))
			}
			// The fixture's reconstruction must also still honor the bound
			// it was written at (sz guarantees it; zfp's search is best
			// effort but pinned by the golden bytes above).
			if tc.id == codec.SZ {
				orig := goldenField()
				for i := range orig.Data {
					if d := math.Abs(float64(orig.Data[i]) - float64(recon.Data[i])); d > 0.05*(1+1e-6) {
						t.Fatalf("cell %d error %g exceeds the 0.05 bound", i, d)
					}
				}
			}
		})
	}
}

// TestGoldenStreamV3 pins the multi-snapshot stream container: a 3-step,
// two-field (mixed-codec!) fixture must keep its index and keep decoding
// bit-exactly. The fixture is frozen: its sz field holds reconstructed-value
// (flag-0) frames, and it was written by the steps goldenStep builds, each
// compressed at a 0.05 bound with 8³ partitions by both backends.
func TestGoldenStreamV3(t *testing.T) {
	const steps = 3
	stream := writeOrReadGolden(t, "golden_stream.acs", nil)
	expect := writeOrReadGolden(t, "golden_stream.f32", nil)

	sr, err := OpenStream(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatalf("fixture stream no longer opens: %v", err)
	}
	if sr.Steps() != steps {
		t.Fatalf("fixture has %d steps, want %d", sr.Steps(), steps)
	}
	cells := 16 * 16 * 16
	for s := 0; s < steps; s++ {
		fields, err := sr.ReadStep(s)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		for fi, name := range []string{"density_sz", "density_zfp"} {
			cf := fields[name]
			if cf == nil {
				t.Fatalf("step %d missing %q", s, name)
			}
			recon, err := cf.Decompress(context.Background())
			if err != nil {
				t.Fatalf("step %d %s: %v", s, name, err)
			}
			off := (s*2 + fi) * cells * 4
			if got := float32le(recon.Data); !bytes.Equal(got, expect[off:off+cells*4]) {
				t.Errorf("step %d %s decodes to different values", s, name)
			}
		}
	}
}

func diffCount(a, b []byte) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	diff := n - min(len(a), len(b))
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	return diff
}
