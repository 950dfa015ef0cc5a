package sz

import (
	"fmt"
	"math"

	"repro/internal/apierr"
	"repro/internal/grid"
	"repro/internal/huffman"
)

// ErrCorrupt is wrapped by all decompression-time integrity failures. It
// wraps the public ErrCorruptArchive sentinel, so a corrupt sz stream is
// classifiable from the facade whether it was hit inside an archive parse
// or through a direct codec-level decode.
var ErrCorrupt = fmt.Errorf("sz: corrupt compressed stream (%w)", apierr.ErrCorruptArchive)

// Decompress reconstructs the field from a Compressed brick.
func Decompress(c *Compressed) (*grid.Field3D, error) {
	data, err := DecompressSlice(c)
	if err != nil {
		return nil, err
	}
	return &grid.Field3D{Nx: c.Nx, Ny: c.Ny, Nz: c.Nz, Data: data}, nil
}

// DecompressSlice reconstructs the flat brick values. Working state
// (entropy tables, token and symbol buffers, the lattice) is borrowed from
// the package scratch pool; only the returned reconstruction is allocated.
func DecompressSlice(c *Compressed) ([]float32, error) {
	n := c.N()
	if n <= 0 {
		return nil, fmt.Errorf("%w: empty brick", ErrCorrupt)
	}
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	radius := c.Opt.radius()
	runBase := 2 * radius
	tokens, err := huffman.DecompressWith(c.codeStream, &s.huff)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	symbols, err := rleDecodeInto(s.symbolBuf(n)[:0], tokens, radius, runBase, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	eb := effectiveABSBound(c.Opt)
	var out []float32
	if c.Opt.QuantizeBeforePredict {
		out, err = reconstructLattice(symbols, c, eb, s)
	} else {
		out, err = reconstructDirect(symbols, c, eb)
	}
	if err != nil {
		return nil, err
	}
	if c.Opt.Mode == PWREL {
		for i, v := range out {
			out[i] = float32(math.Exp(float64(v)))
		}
	}
	return out, nil
}

// reconstructDirect mirrors predictThenQuantize: the interior (x, y, z all
// > 0) runs the Lorenzo stencil branch-free over flat offsets, boundary
// cells go through the generic predictor.
func reconstructDirect(symbols []int, c *Compressed, eb float64) ([]float32, error) {
	nx, ny, nz := c.Nx, c.Ny, c.Nz
	radius := c.Opt.radius()
	twoEB := 2 * eb
	recon := make([]float32, len(symbols))
	outPos := 0

	cell := func(x, y, z, idx int) error {
		s := symbols[idx]
		if s == 0 {
			v, pos, err := readFloat32(c.outliers, outPos)
			if err != nil {
				return err
			}
			recon[idx] = v
			outPos = pos
			return nil
		}
		pred := predict(recon, nx, ny, x, y, z, idx, c.Opt.Predictor)
		// Unfused like the encoder (see predictThenQuantize).
		recon[idx] = float32(pred + float64(twoEB*float64(s-radius)))
		return nil
	}

	if c.Opt.Predictor != Lorenzo3D {
		idx := 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					if err := cell(x, y, z, idx); err != nil {
						return nil, err
					}
					idx++
				}
			}
		}
		if outPos != len(c.outliers) {
			return nil, fmt.Errorf("%w: %d unread outlier bytes", ErrCorrupt, len(c.outliers)-outPos)
		}
		return recon, nil
	}

	nxny := nx * ny
	idx := 0
	for y := 0; y < ny; y++ { // z == 0 plane
		for x := 0; x < nx; x++ {
			if err := cell(x, y, 0, idx); err != nil {
				return nil, err
			}
			idx++
		}
	}
	for z := 1; z < nz; z++ {
		for x := 0; x < nx; x++ { // y == 0 row
			if err := cell(x, 0, z, idx); err != nil {
				return nil, err
			}
			idx++
		}
		for y := 1; y < ny; y++ {
			if err := cell(0, y, z, idx); err != nil { // x == 0 cell
				return nil, err
			}
			rowStart := idx
			idx += nx
			// Same-length row views as the encoder's interior loop, so the
			// stencil reads are bounds-check free.
			cur := recon[rowStart : rowStart+nx]
			py := recon[rowStart-nx : rowStart-nx+nx]
			pz := recon[rowStart-nxny : rowStart-nxny+nx]
			pyz := recon[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			srow := symbols[rowStart : rowStart+nx]
			prev := float64(cur[0])
			for x := 1; x < nx; x++ {
				s := srow[x]
				if s == 0 {
					v, pos, err := readFloat32(c.outliers, outPos)
					if err != nil {
						return nil, err
					}
					cur[x] = v
					prev = float64(v)
					outPos = pos
					continue
				}
				fy := float64(py[x])
				fz := float64(pz[x])
				fxy := float64(py[x-1])
				fxz := float64(pz[x-1])
				fyz := float64(pyz[x])
				fxyz := float64(pyz[x-1])
				pred := prev + fy + fz - fxy - fxz - fyz + fxyz
				r := float32(pred + float64(twoEB*float64(s-radius)))
				cur[x] = r
				prev = float64(r)
			}
		}
	}
	if outPos != len(c.outliers) {
		return nil, fmt.Errorf("%w: %d unread outlier bytes", ErrCorrupt, len(c.outliers)-outPos)
	}
	return recon, nil
}

// reconstructLattice mirrors quantizeThenPredict: the integer Lorenzo
// stencil runs branch-free over the interior, boundary cells go through the
// generic predictor.
func reconstructLattice(symbols []int, c *Compressed, eb float64, s *Scratch) ([]float32, error) {
	nx, ny, nz := c.Nx, c.Ny, c.Nz
	radius := c.Opt.radius()
	twoEB := 2 * eb
	lat := s.latticeBuf(len(symbols))
	out := make([]float32, len(symbols))
	verbatim := s.verbatimBuf(len(symbols))
	outPos := 0

	cell := func(x, y, z, idx int) error {
		s := symbols[idx]
		if s == 0 {
			v, pos, err := readFloat32(c.outliers, outPos)
			if err != nil {
				return err
			}
			// Re-derive the encoder's lattice coordinate from the verbatim
			// value so neighbour prediction stays exact.
			lat[idx] = int64(math.Floor(float64(v)/twoEB + 0.5))
			out[idx] = v
			verbatim[idx] = true
			outPos = pos
			return nil
		}
		lat[idx] = predictInt(lat, nx, ny, x, y, z) + int64(s-radius)
		return nil
	}

	nxny := nx * ny
	idx := 0
	for y := 0; y < ny; y++ { // z == 0 plane
		for x := 0; x < nx; x++ {
			if err := cell(x, y, 0, idx); err != nil {
				return nil, err
			}
			idx++
		}
	}
	for z := 1; z < nz; z++ {
		for x := 0; x < nx; x++ { // y == 0 row
			if err := cell(x, 0, z, idx); err != nil {
				return nil, err
			}
			idx++
		}
		for y := 1; y < ny; y++ {
			if err := cell(0, y, z, idx); err != nil { // x == 0 cell
				return nil, err
			}
			rowStart := idx
			idx += nx
			cur := lat[rowStart : rowStart+nx]
			ly := lat[rowStart-nx : rowStart-nx+nx]
			lz := lat[rowStart-nxny : rowStart-nxny+nx]
			lyz := lat[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			srow := symbols[rowStart : rowStart+nx]
			prev := cur[0]
			for x := 1; x < nx; x++ {
				s := srow[x]
				if s == 0 {
					v, pos, err := readFloat32(c.outliers, outPos)
					if err != nil {
						return nil, err
					}
					prev = int64(math.Floor(float64(v)/twoEB + 0.5))
					cur[x] = prev
					out[rowStart+x] = v
					verbatim[rowStart+x] = true
					outPos = pos
					continue
				}
				pred := prev + ly[x] + lz[x] - ly[x-1] - lz[x-1] - lyz[x] + lyz[x-1]
				prev = pred + int64(s-radius)
				cur[x] = prev
			}
		}
	}
	if outPos != len(c.outliers) {
		return nil, fmt.Errorf("%w: %d unread outlier bytes", ErrCorrupt, len(c.outliers)-outPos)
	}
	for i, q := range lat {
		if !verbatim[i] {
			out[i] = float32(twoEB * float64(q))
		}
	}
	return out, nil
}

func readFloat32(buf []byte, pos int) (float32, int, error) {
	if pos+4 > len(buf) {
		return 0, 0, fmt.Errorf("%w: outlier stream truncated", ErrCorrupt)
	}
	b := uint32(buf[pos]) | uint32(buf[pos+1])<<8 | uint32(buf[pos+2])<<16 | uint32(buf[pos+3])<<24
	return math.Float32frombits(b), pos + 4, nil
}
