package sz

import (
	"fmt"
	"math/bits"

	"repro/internal/apierr"
	"repro/internal/grid"
	"repro/internal/huffman"
)

// PreviewInfo reports what a progressive preview decode kept and dropped.
type PreviewInfo struct {
	// Outliers is the count of verbatim-stored cells, always reconstructed
	// exactly — in a cosmology field these are the halo peaks, which is
	// why even an aggressive preview keeps the structures an analyst
	// browses for.
	Outliers int
	// KeptCorrections and DroppedCorrections partition the quantized
	// prediction corrections by the octave threshold.
	KeptCorrections, DroppedCorrections int
	// Threshold is the smallest |correction| (in quantization units) the
	// preview kept; corrections below it decoded as "perfect prediction".
	// 1 means nothing was dropped — the preview equals the full decode.
	Threshold int
}

// DecompressPreview is the SZ path's first progressive rung: a decode-side
// coarsened reconstruction built from the outlier mass plus the top
// `octaves` octaves of the quantized correction tokens (the multi-level
// single-snapshot idea of arXiv 1711.03888, applied at read time). The
// stream format is untouched — SZ's entropy coding is not prefix-sliceable
// the way ZFP's bit planes are, so the whole token stream is still
// entropy-decoded — but the reconstruction zeroes every correction whose
// magnitude falls below 2^(top-octave-of-the-field − octaves + 1),
// keeping only the large prediction misses: outliers verbatim, coarse
// structure from the top token octaves, smooth regions from prediction
// alone. Larger `octaves` converge monotonically to the exact decode;
// once the threshold reaches 1 the result is bit-identical to Decompress.
//
// The pointwise error-bound guarantee does not survive coarsening (each
// dropped correction perturbs its cell by up to 2·eb·|correction| through
// the prediction feedback) — this is a browse-quality preview, not an
// analysis product, which is exactly the tier split the archive server
// serves it under.
func DecompressPreview(c *Compressed, octaves int) (*grid.Field3D, PreviewInfo, error) {
	var info PreviewInfo
	if octaves < 1 {
		return nil, info, fmt.Errorf("sz: %w: preview octaves %d, need ≥ 1", apierr.ErrBadConfig, octaves)
	}
	n := c.N()
	if n <= 0 {
		return nil, info, fmt.Errorf("%w: empty brick", ErrCorrupt)
	}
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	radius := c.Opt.radius()
	runBase := 2 * radius
	tokens, err := huffman.DecompressWith(c.codeStream, &s.huff)
	if err != nil {
		return nil, info, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	symbols, err := rleDecodeInto(s.symbolBuf(n)[:0], tokens, radius, runBase, n)
	if err != nil {
		return nil, info, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	// The field's top octave: bit length of the largest |correction|.
	maxAbs := 0
	for _, sym := range symbols {
		if sym == 0 {
			continue
		}
		if d := sym - radius; d > maxAbs {
			maxAbs = d
		} else if -d > maxAbs {
			maxAbs = -d
		}
	}
	info.Threshold = 1
	if top := bits.Len(uint(maxAbs)); top > octaves {
		info.Threshold = 1 << (top - octaves)
	}
	for i, sym := range symbols {
		if sym == 0 {
			info.Outliers++
			continue
		}
		d := sym - radius
		if d < 0 {
			d = -d
		}
		switch {
		case d == 0:
			// Perfect prediction already — no correction mass to keep or drop.
		case d >= info.Threshold:
			info.KeptCorrections++
		default:
			info.DroppedCorrections++
			symbols[i] = radius // "perfect prediction": zero correction
		}
	}

	out, err := reconstruct(symbols, c, s)
	if err != nil {
		return nil, info, err
	}
	return &grid.Field3D{Nx: c.Nx, Ny: c.Ny, Nz: c.Nz, Data: out}, info, nil
}
