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

	return reconstruct(symbols, c, s)
}

// reconstruct dispatches on the stored flag, not on the predictor: flag-1
// frames are lattice Lorenzo whatever their predictor byte says (that is
// how MeanNeighbor frames with the flag set were once coded), and flag-0
// frames (the reconstructed-value Lorenzo and MeanNeighbor frames of older
// archives) decode through reconstructDirect forever. PW_REL frames are
// mapped back out of log space.
func reconstruct(symbols []int, c *Compressed, s *Scratch) ([]float32, error) {
	eb := effectiveABSBound(c.Opt)
	var out []float32
	var err error
	if c.lattice {
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

// reconstructDirect decodes the flag-0 frames of the reconstructed-value
// encoders older archives hold: each cell is predicted from its already
// reconstructed neighbours.
func reconstructDirect(symbols []int, c *Compressed, eb float64) ([]float32, error) {
	nx, ny, nz := c.Nx, c.Ny, c.Nz
	radius := c.Opt.radius()
	twoEB := 2 * eb
	recon := make([]float32, len(symbols))
	outPos := 0
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x, idx = x+1, idx+1 {
				s := symbols[idx]
				if s == 0 {
					v, pos, err := readFloat32(c.outliers, outPos)
					if err != nil {
						return nil, err
					}
					recon[idx] = v
					outPos = pos
					continue
				}
				pred := predict(recon, nx, ny, x, y, z, idx, c.predictor)
				// The explicit conversion rounds the product, as those
				// encoders did, so no architecture fuses it into an FMA.
				recon[idx] = float32(pred + float64(twoEB*float64(s-radius)))
			}
		}
	}
	if outPos != len(c.outliers) {
		return nil, fmt.Errorf("%w: %d unread outlier bytes", ErrCorrupt, len(c.outliers)-outPos)
	}
	return recon, nil
}

// reconstructLattice mirrors quantizeThenPredict over the same zero-haloed
// lattice: a coded cell adds its correction to the integer Lorenzo
// prediction, an outlier takes its verbatim value and re-derives its
// lattice coordinate from it, so neighbour predictions stay exact.
func reconstructLattice(symbols []int, c *Compressed, eb float64, s *Scratch) ([]float32, error) {
	nx, ny, nz := c.Nx, c.Ny, c.Nz
	radius := c.Opt.radius()
	twoEB := 2 * eb
	hx, hxy := nx+1, (nx+1)*(ny+1)
	lat := s.latticeBuf(hxy * (nz + 1))
	clear(lat[:hxy]) // the z = −1 halo plane
	out := make([]float32, len(symbols))
	outPos := 0
	idx := 0
	for z := 1; z <= nz; z++ {
		clear(lat[z*hxy : z*hxy+hx]) // the y = −1 halo row
		for y := 1; y <= ny; y++ {
			row := z*hxy + y*hx
			srow := symbols[idx : idx+nx]
			orow := out[idx : idx+nx][:len(srow)]
			cur := lat[row : row+hx][:len(srow)+1]
			ly := lat[row-hx : row][:len(cur)]
			lz := lat[row-hxy : row-hxy+hx][:len(cur)]
			lyz := lat[row-hx-hxy : row-hxy][:len(cur)]
			cur[0] = 0
			q := int64(0) // the left neighbour, carried in a register
			for x, sym := range srow {
				if sym == 0 {
					v, pos, err := readFloat32(c.outliers, outPos)
					if err != nil {
						return nil, err
					}
					outPos = pos
					q = latticeCoord(v, twoEB)
					orow[x] = v
				} else {
					q += ly[x+1] + lz[x+1] - ly[x] - lz[x] - lyz[x+1] + lyz[x] + int64(sym-radius)
					orow[x] = float32(twoEB * float64(q))
				}
				cur[x+1] = q
			}
			idx += nx
		}
	}
	if outPos != len(c.outliers) {
		return nil, fmt.Errorf("%w: %d unread outlier bytes", ErrCorrupt, len(c.outliers)-outPos)
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
