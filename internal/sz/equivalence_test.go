package sz_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/sz"
)

// TestLatticeMatchesReconstructedValueOnDensity is the paper's Sec. 3.2
// equivalence on the traffic the method produces: every 16³ partition of
// the 64³ baryon density at its planned bound. The lattice encoder and the
// reconstructed-value reference must both honour each bound, and their
// total bytes must agree within ±0.1 %.
func TestLatticeMatchesReconstructedValueOnDensity(t *testing.T) {
	snap, err := nyx.Generate(nyx.Params{N: 64, Seed: 11, Redshift: 42})
	if err != nil {
		t.Fatal(err)
	}
	f, err := snap.Field(nyx.FieldBaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{PartitionDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cal, err := eng.Calibrate(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(ctx, f, cal, core.PlanOptions{AvgEB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := grid.PartitionerForBrickDim(f.Nx, 16)
	if err != nil {
		t.Fatal(err)
	}
	var lattice, direct, differ int
	parts := p.Partitions()
	for i, part := range parts {
		brick := grid.Extract(f, part)
		nx, ny, nz := part.Dims()
		opt := sz.Options{Mode: sz.ABS, ErrorBound: plan.EBs[i]}
		lc, err := sz.CompressSlice(brick, nx, ny, nz, opt)
		if err != nil {
			t.Fatal(err)
		}
		dc := sz.CompressReconstructedValue(brick, nx, ny, nz, opt)
		for name, c := range map[string]*sz.Compressed{"lattice": lc, "reconstructed-value": dc} {
			got, err := sz.DecompressSlice(c)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range brick {
				if d := math.Abs(float64(got[j]) - float64(v)); d > opt.ErrorBound {
					t.Fatalf("partition %d, %s: cell %d error %g > eb %g", i, name, j, d, opt.ErrorBound)
				}
			}
		}
		lattice += lc.CompressedSize()
		direct += dc.CompressedSize()
		if !bytes.Equal(lc.Bytes()[sz.HeaderBytes:], dc.Bytes()[sz.HeaderBytes:]) {
			differ++
		}
	}
	rel := float64(lattice-direct) / float64(direct)
	t.Logf("total bytes: lattice %d, reconstructed-value %d (%+.4f %%); payloads differ in %d of %d partitions",
		lattice, direct, 100*rel, differ, len(parts))
	if math.Abs(rel) > 0.001 {
		t.Errorf("lattice bytes %d vs reconstructed-value %d: %+.3f %%, want within ±0.1 %%",
			lattice, direct, 100*rel)
	}
}

// TestReferenceFramesThroughCodec drives the flag-0 frames older archives
// hold, Lorenzo and mean-neighbour, through the codec layer the engine
// reads them with: parse, envelope round trip, decompress within the bound.
func TestReferenceFramesThroughCodec(t *testing.T) {
	c, err := codec.Lookup(codec.SZ)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := nyx.Generate(nyx.Params{N: 16, Seed: 12, Redshift: 42})
	if err != nil {
		t.Fatal(err)
	}
	temp, err := snap.Field(nyx.FieldTemperature)
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range []float64{1, 100} {
		opt := sz.Options{Mode: sz.ABS, ErrorBound: eb}
		for name, ref := range map[string]*sz.Compressed{
			"lorenzo":       sz.CompressReconstructedValue(temp.Data, temp.Nx, temp.Ny, temp.Nz, opt),
			"mean-neighbor": sz.CompressMeanNeighbor(temp.Data, temp.Nx, temp.Ny, temp.Nz, opt),
		} {
			fr, err := c.Parse(ref.Bytes())
			if err != nil {
				t.Fatalf("%s eb %g: %v", name, eb, err)
			}
			parsed, err := codec.DecodeFrame(codec.EncodeFrame(fr))
			if err != nil {
				t.Fatalf("%s eb %g: %v", name, eb, err)
			}
			got, err := parsed.Decompress()
			if err != nil {
				t.Fatalf("%s eb %g: %v", name, eb, err)
			}
			for i, v := range temp.Data {
				if d := math.Abs(float64(got[i]) - float64(v)); d > eb {
					t.Fatalf("%s eb %g: cell %d error %g", name, eb, i, d)
				}
			}
		}
	}
}
