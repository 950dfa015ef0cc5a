package codec

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/zfp"
)

// TestZFPBoundedWorkBound pins what the rate search may cost: the verify
// pass of the chosen rate decodes every block once, and everything before
// it — the pivot's binary search, the failing rates — must fit in another
// block count and a half (a search built on whole-partition probes spends
// nine on this brick). The telemetry is that of the frame returned, and
// neither it nor the frame depends on the scratch.
func TestZFPBoundedWorkBound(t *testing.T) {
	data, nx, ny, nz := testBrick()
	blocks := (nx / 4) * (ny / 4) * (nz / 4)
	c, err := Lookup(ZFP)
	if err != nil {
		t.Fatal(err)
	}
	var warm Scratch
	for _, eb := range []float64{0.5, 0.05, 0.005} {
		var tel Telemetry
		ref, err := c.Compress(data, nx, ny, nz, Options{ErrorBound: eb, Telemetry: &tel}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tel.BlockDecodes < blocks || float64(tel.BlockDecodes) > 2.5*float64(blocks) {
			t.Errorf("eb %g: %d block decodes for %d blocks, want within [1, 2.5] x blocks", eb, tel.BlockDecodes, blocks)
		}
		if tel.Probes <= 0 || tel.Probes > tel.BlockDecodes {
			t.Errorf("eb %g: %d candidate rates over %d block decodes", eb, tel.Probes, tel.BlockDecodes)
		}
		if parsed, err := zfp.Parse(ref.AppendBytes(nil)); err != nil || parsed.Rate != tel.ChosenRate {
			t.Errorf("eb %g: telemetry says rate %g, the frame says %+v (%v)", eb, tel.ChosenRate, parsed, err)
		}
		var again Telemetry
		pooled, err := c.Compress(data, nx, ny, nz, Options{ErrorBound: eb, Telemetry: &again}, &warm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pooled.AppendBytes(nil), ref.AppendBytes(nil)) || again.Probes != tel.Probes || again.BlockDecodes != tel.BlockDecodes || again.ChosenRate != tel.ChosenRate {
			t.Errorf("eb %g: a reused scratch changed the frame or the telemetry (%+v vs %+v)", eb, again, tel)
		}
	}
}

// TestZFPCompressCtxCancel: cancellation reaches the rate search's
// truncated-decode probe loop, not just the partition boundaries above it.
func TestZFPCompressCtxCancel(t *testing.T) {
	data, nx, ny, nz := testBrick()
	c, err := Lookup(ZFP)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CompressCtx(ctx, c, data, nx, ny, nz, Options{ErrorBound: 0.01}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled rate search returned %v, want context.Canceled", err)
	}
	// Fixed-rate compression does no probing and must ignore the context.
	if _, err := CompressCtx(ctx, c, data, nx, ny, nz, Options{Rate: 8}, nil); err != nil {
		t.Errorf("fixed-rate compression failed under canceled ctx: %v", err)
	}
	// The sz backend has no ctx-aware path: CompressCtx must fall back to
	// plain Compress and succeed.
	szc, err := Lookup(SZ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompressCtx(ctx, szc, data, nx, ny, nz, Options{ErrorBound: 0.01}, nil); err != nil {
		t.Errorf("sz CompressCtx fallback failed: %v", err)
	}
}

// TestSZTelemetryQuantHist: the quantization histogram surfaced from the
// prediction pass must account for every cell and land hits in the right
// octave bins.
func TestSZTelemetryQuantHist(t *testing.T) {
	data, nx, ny, nz := testBrick()
	c, err := Lookup(SZ)
	if err != nil {
		t.Fatal(err)
	}
	for _, withScratch := range []bool{true, false} {
		var s *Scratch
		if withScratch {
			s = &Scratch{}
		}
		var tel Telemetry
		if _, err := c.Compress(data, nx, ny, nz, Options{ErrorBound: 0.01, Telemetry: &tel}, s); err != nil {
			t.Fatal(err)
		}
		if len(tel.QuantHist) != QuantHistBins {
			t.Fatalf("histogram has %d bins, want %d", len(tel.QuantHist), QuantHistBins)
		}
		var total int64
		for _, n := range tel.QuantHist {
			if n < 0 {
				t.Fatalf("negative bin count %d", n)
			}
			total += n
		}
		if want := int64(len(data)); total != want {
			t.Errorf("histogram counts %d symbols for %d cells (scratch=%v)", total, want, withScratch)
		}
		// A smooth brick at a loose bound predicts well: exact hits dominate
		// and almost nothing is an outlier.
		if tel.QuantHist[0] == 0 {
			t.Error("no exact prediction hits on a smooth brick")
		}
		if out := tel.QuantHist[QuantHistBins-1]; out > int64(len(data)/10) {
			t.Errorf("%d outliers on a smooth brick", out)
		}
	}
}
