package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/stats"
	"repro/internal/zfp"
)

// zfpRateGrid states the candidate rates of the ZFP error-bounded path
// independently of internal/zfp.
var zfpRateGrid = []float64{
	0.5, 0.75, 1, 1.25, 1.5, 1.75, 2, 2.25, 2.5, 2.75, 3, 3.25, 3.5, 3.75, 4,
	4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8,
	9, 10, 11, 12, 13, 14, 15, 16,
	18, 20, 22, 24, 26, 28, 30, 32,
}

// TestZFPBoundedUnderPlannedBounds explores the ZFP rate choice where it is
// used: every 16³ partition of two synthetic Nyx fields, each at the bound
// the plan assigned it. Every grid rate is evaluated by full reconstruction
// and the engine's frame is held to: its rate passes, the rate below fails,
// and it is the global minimum wherever pass/fail is monotone in rate. On
// these fields it is not monotone everywhere (a partition passes at 4, fails
// at 4.5 and passes again from 5), and the test insists on meeting such
// partitions, because they are where a probe-path-dependent search would
// return different frames for the same data and bound.
func TestZFPBoundedUnderPlannedBounds(t *testing.T) {
	ctx := context.Background()
	e := engine(t, Config{PartitionDim: 16, Codec: codec.ZFP})
	zc, err := codec.Lookup(codec.ZFP)
	if err != nil {
		t.Fatal(err)
	}
	nonMonotone := 0
	for _, name := range []string{nyx.FieldBaryonDensity, nyx.FieldVelocityX} {
		f := field(t, name)
		cal, err := e.Calibrate(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		features, err := e.Features(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, v := range features {
			mean += v / float64(len(features))
		}
		plan, err := e.PlanFromFeatures(features, cal, PlanOptions{AvgEB: 0.1 * mean})
		if err != nil {
			t.Fatal(err)
		}
		cf, err := e.CompressAdaptive(ctx, f, plan)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.partitioner(f)
		if err != nil {
			t.Fatal(err)
		}
		for pi, part := range p.Partitions() {
			nx, ny, nz := part.Dims()
			brick := &grid.Field3D{Nx: nx, Ny: ny, Nz: nz, Data: make([]float32, part.Len())}
			grid.ExtractInto(brick.Data, f, part)
			eb := plan.EBs[pi]

			ix, err := zfp.CompressIndexed(brick, zfp.Options{Rate: 32}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pass := make([]bool, len(zfpRateGrid))
			mono, lowest := true, -1
			for g, rate := range zfpRateGrid {
				rec, err := ix.DecompressAtRate(rate)
				if err != nil {
					t.Fatal(err)
				}
				worst, err := stats.MaxAbsError(brick.Data, rec.Data)
				if err != nil {
					t.Fatal(err)
				}
				pass[g] = worst <= eb
				if pass[g] && lowest < 0 {
					lowest = g
				}
				if g > 0 && pass[g-1] && !pass[g] {
					mono = false
				}
			}
			if !mono {
				nonMonotone++
			}

			frame := cf.Parts[pi]
			parsed, err := zfp.Parse(frame.AppendBytes(nil))
			if err != nil {
				t.Fatal(err)
			}
			g := 0
			for g < len(zfpRateGrid) && zfpRateGrid[g] != parsed.Rate {
				g++
			}
			switch {
			case g == len(zfpRateGrid):
				t.Fatalf("%s partition %d: rate %g is not on the grid", name, pi, parsed.Rate)
			case frame.ErrorBound() != eb || !pass[g]:
				t.Errorf("%s partition %d: rate %g claims bound %g of %g, full reconstruction passes: %v",
					name, pi, parsed.Rate, frame.ErrorBound(), eb, pass[g])
			case g > 0 && pass[g-1]:
				t.Errorf("%s partition %d: rate %g below the chosen %g also meets %g", name, pi, zfpRateGrid[g-1], parsed.Rate, eb)
			case mono && g != lowest:
				t.Errorf("%s partition %d: chose rate %g, the lowest passing rate is %g", name, pi, parsed.Rate, zfpRateGrid[lowest])
			}
			// The frame is a function of (data, bound) alone: the codec
			// called directly, outside the engine's pooled scratch and
			// worker fan-out, returns the same bytes.
			alone, err := zc.Compress(brick.Data, nx, ny, nz, e.codecOptions(eb), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(alone.AppendBytes(nil), frame.AppendBytes(nil)) {
				t.Errorf("%s partition %d: engine frame differs from a direct codec call", name, pi)
			}
		}
	}
	if nonMonotone == 0 {
		t.Error("no partition with non-monotone pass/fail over the grid: the case this test exists for was not explored")
	}
	t.Logf("%d partitions with non-monotone pass/fail", nonMonotone)
}
