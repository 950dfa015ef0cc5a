package sz

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/huffman"
)

// Compressed holds one compressed 3-D brick plus the metadata needed to
// reconstruct it and to account for its storage cost.
type Compressed struct {
	Nx, Ny, Nz int
	Opt        Options

	// lattice is the stored flag bit0: set when the integer-lattice Lorenzo
	// encoder (quantizeThenPredict) produced the code stream, clear for the
	// reconstructed-value predictor. Every new Lorenzo3D frame sets it; the
	// decoder dispatches on it, so flag-0 frames keep decoding.
	lattice bool
	// codeStream is the Huffman-coded, RLE-expanded quantization stream.
	codeStream []byte
	// outliers are the verbatim (possibly log-transformed) fp32 values of
	// unpredictable points, in encounter order.
	outliers []byte
	// logShift is the PW_REL transform offset (0 in ABS mode).
	logShift float64
}

// N returns the number of cells in the brick.
func (c *Compressed) N() int { return c.Nx * c.Ny * c.Nz }

// CompressedSize returns the payload size in bytes, including the stream
// header written by Bytes. This is the figure used for compression ratios.
func (c *Compressed) CompressedSize() int {
	return headerSize + len(c.codeStream) + len(c.outliers)
}

// BitRate returns bits per value (the paper's "bit rate"; raw fp32 is 32).
func (c *Compressed) BitRate() float64 {
	return float64(c.CompressedSize()) * 8 / float64(c.N())
}

// Ratio returns the compression ratio relative to fp32 storage.
func (c *Compressed) Ratio() float64 {
	return float64(4*c.N()) / float64(c.CompressedSize())
}

// Scratch holds the O(n) working state of one compression call — the
// prediction, quantization, outlier, RLE, and entropy-stage buffers that
// are dead once the stream is built. The hot in situ path compresses
// thousands of equally sized partitions, so reusing one Scratch per worker
// removes almost all transient allocation from the pipeline. A Scratch must
// not be used concurrently; the zero value is ready to use.
type Scratch struct {
	symbols  []int
	recon    []float32
	logged   []float32
	lattice  []int64
	tokens   []int
	outliers []byte
	huff     huffman.Scratch
}

func (s *Scratch) symbolBuf(n int) []int {
	if cap(s.symbols) < n {
		s.symbols = make([]int, n)
	}
	return s.symbols[:n]
}

func (s *Scratch) reconBuf(n int) []float32 {
	if cap(s.recon) < n {
		s.recon = make([]float32, n)
	}
	return s.recon[:n]
}

func (s *Scratch) loggedBuf(n int) []float32 {
	if cap(s.logged) < n {
		s.logged = make([]float32, n)
	}
	return s.logged[:n]
}

func (s *Scratch) latticeBuf(n int) []int64 {
	if cap(s.lattice) < n {
		s.lattice = make([]int64, n)
	}
	return s.lattice[:n]
}

// outlierBuf returns the reusable outlier accumulator, reset to length 0.
// The buffer keeps its high-water capacity across calls, so a heavy-outlier
// partition grows it once instead of regrowing it every call.
func (s *Scratch) outlierBuf() []byte {
	if s.outliers == nil {
		s.outliers = make([]byte, 0, 64)
	}
	return s.outliers[:0]
}

// scratchPool backs the scratchless convenience entry points (Compress,
// CompressSlice, DecompressSlice with no caller-owned Scratch), so even
// one-shot callers run allocation-flat in steady state.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// Compress compresses a field under the given options.
func Compress(f *grid.Field3D, opt Options) (*Compressed, error) {
	return CompressSlice(f.Data, f.Nx, f.Ny, f.Nz, opt)
}

// CompressSlice compresses a flat x-fastest brick of dimensions nx×ny×nz.
func CompressSlice(data []float32, nx, ny, nz int, opt Options) (*Compressed, error) {
	return CompressSliceWith(data, nx, ny, nz, opt, nil)
}

// CompressSliceWith is CompressSlice with caller-owned scratch buffers; a
// nil scratch borrows pooled working state. The input and the scratch are
// only retained during the call.
func CompressSliceWith(data []float32, nx, ny, nz int, opt Options, s *Scratch) (*Compressed, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(data) != nx*ny*nz || len(data) == 0 {
		return nil, fmt.Errorf("sz: data length %d != %d×%d×%d", len(data), nx, ny, nz)
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(ps)
		s = ps
	}

	work := data
	var logShift float64
	if opt.Mode == PWREL {
		var err error
		work, logShift, err = logTransform(data, s)
		if err != nil {
			return nil, err
		}
	}

	var symbols []int
	eb := effectiveABSBound(opt)
	lattice := opt.Predictor == Lorenzo3D
	if lattice {
		symbols = quantizeThenPredict(work, nx, ny, nz, eb, opt.radius(), s)
	} else {
		symbols = predictThenQuantize(work, nx, ny, nz, eb, opt, s)
	}
	// The outlier accumulator is scratch-owned; the Compressed brick
	// outlives the call, so it keeps an exact-size copy.
	var outliers []byte
	if len(s.outliers) > 0 {
		outliers = make([]byte, len(s.outliers))
		copy(outliers, s.outliers)
	}

	radius := opt.radius()
	runBase := 2 * radius
	// The token stream is never longer than the symbol stream (runs only
	// shrink it); sizing the buffer up front avoids append regrowth on the
	// first use of a scratch.
	if cap(s.tokens) < len(symbols) {
		s.tokens = make([]int, 0, len(symbols))
	}
	s.tokens = rleEncodeInto(s.tokens, symbols, radius, runBase)
	stream, err := huffman.CompressWith(s.tokens, &s.huff)
	if err != nil {
		return nil, fmt.Errorf("sz: entropy coding: %w", err)
	}
	return &Compressed{
		Nx: nx, Ny: ny, Nz: nz,
		Opt:        opt,
		lattice:    lattice,
		codeStream: stream,
		outliers:   outliers,
		logShift:   logShift,
	}, nil
}

// effectiveABSBound maps the user error bound to the absolute bound applied
// in (possibly transformed) space. For PW_REL the log transform turns the
// relative bound r into an absolute bound on ln(x): bounding ln-space error
// by ln(1+r) guarantees x̂/x ∈ [1/(1+r), 1+r] ⊂ [1−r, 1+r].
func effectiveABSBound(opt Options) float64 {
	if opt.Mode == PWREL {
		return math.Log(1 + opt.ErrorBound)
	}
	return opt.ErrorBound
}

// errPositiveOnly is returned by PW_REL compression on non-positive data.
var errPositiveOnly = errors.New("sz: PW_REL mode requires strictly positive data")

// logTransform maps strictly positive data to ln(x). The shift is reserved
// for future signed support and is currently always 0.
func logTransform(data []float32, s *Scratch) ([]float32, float64, error) {
	out := s.loggedBuf(len(data))
	for i, v := range data {
		if v <= 0 {
			return nil, 0, errPositiveOnly
		}
		out[i] = float32(math.Log(float64(v)))
	}
	return out, 0, nil
}

// predictThenQuantize is the reconstructed-value formulation, kept for the
// MeanNeighbor predictor: predict from already reconstructed neighbours,
// quantize the residual in units of 2·eb, verify the bound, and fall back
// to a verbatim outlier when quantization cannot honour it. Each cell waits
// on its neighbour's reconstruction, so this loop is latency-bound; Lorenzo
// frames take quantizeThenPredict instead. Symbol layout: 0 = outlier;
// [1, 2·radius) = code + radius. Outliers accumulate in s.outliers.
func predictThenQuantize(data []float32, nx, ny, nz int, eb float64, opt Options, s *Scratch) []int {
	radius := opt.radius()
	recon := s.reconBuf(len(data))
	symbols := s.symbolBuf(len(data))
	outliers := s.outlierBuf()
	twoEB := 2 * eb
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x, idx = x+1, idx+1 {
				pred := predict(recon, nx, ny, x, y, z, idx, opt.Predictor)
				v := float64(data[idx])
				q := int(math.Floor((v-pred)/twoEB + 0.5))
				if q > -radius && q < radius {
					// The explicit conversion rounds the product, so no
					// architecture fuses it into an FMA the decoder may
					// not match.
					dec := float32(pred + float64(twoEB*float64(q)))
					// Float rounding can push the reconstruction just past
					// the bound; verify like SZ does.
					if math.Abs(float64(dec)-v) <= eb {
						symbols[idx] = q + radius
						recon[idx] = dec
						continue
					}
				}
				symbols[idx] = 0
				outliers = appendFloat32(outliers, data[idx])
				recon[idx] = data[idx]
			}
		}
	}
	s.outliers = outliers
	return symbols
}

// latticeCoord returns v's coordinate on the 2·eb lattice, ⌊v/2eb + ½⌋.
// Go leaves the float-to-integer conversion of NaN and of values outside
// the int64 range to the CPU (amd64 yields math.MinInt64, arm64 saturates
// and maps NaN to 0), and an outlier's coordinate feeds its neighbours'
// predictions, so those cases return math.MinInt64 explicitly: the value
// amd64 encoders have always written, on every architecture. The encoder
// and both lattice decoders share this one conversion.
func latticeCoord(v float32, twoEB float64) int64 {
	f := float64(v)/twoEB + 0.5
	if !(f >= -0x1p63 && f < 0x1p63) { // NaN fails both comparisons
		return math.MinInt64
	}
	return int64(math.Floor(f))
}

// quantizeThenPredict is the Lorenzo3D encoder, the GPU-SZ/cuSZ
// formulation: each value is snapped to the 2·eb lattice first, then the
// Lorenzo stencil runs on the lattice integers. Unlike predictThenQuantize
// no cell waits on its neighbour's float reconstruction, so no dependency
// chain runs through the loop. Outliers store the verbatim fp32 value
// (accumulated in s.outliers); the decoder re-derives the lattice
// coordinate from it, so encoder and decoder lattices agree bit-exactly. A
// cell also becomes an outlier when fp32 rounding of its lattice value
// would breach the bound, keeping the error-bound guarantee strict.
//
// The lattice is stored with a zero halo, (nx+1)·(ny+1)·(nz+1) entries
// with cell (x, y, z) at (x+1, y+1, z+1): a missing causal neighbour reads
// an integer 0, which degrades the stencil to 2-D/1-D Lorenzo on the
// boundary planes with no per-cell existence tests.
func quantizeThenPredict(data []float32, nx, ny, nz int, eb float64, radius int, s *Scratch) []int {
	twoEB := 2 * eb
	r := int64(radius)
	hx, hxy := nx+1, (nx+1)*(ny+1)
	lat := s.latticeBuf(hxy * (nz + 1))
	clear(lat[:hxy]) // the z = −1 halo plane
	symbols := s.symbolBuf(len(data))
	outliers := s.outlierBuf()
	idx := 0
	for z := 1; z <= nz; z++ {
		clear(lat[z*hxy : z*hxy+hx]) // the y = −1 halo row
		for y := 1; y <= ny; y++ {
			row := z*hxy + y*hx
			// Views of the row and its three causal neighbour rows, halo
			// cell first, one longer than the data row; the shared lengths
			// drop most bounds checks from the stencil.
			drow := data[idx : idx+nx]
			srow := symbols[idx : idx+nx][:len(drow)]
			cur := lat[row : row+hx][:len(drow)+1]
			ly := lat[row-hx : row][:len(cur)]
			lz := lat[row-hxy : row-hxy+hx][:len(cur)]
			lyz := lat[row-hx-hxy : row-hxy][:len(cur)]
			// Two passes per row: the conversions carry nothing from cell
			// to cell, so their divides pipeline (fused into the stencil
			// loop they ran 2× slower); the stencil then reads integers.
			cur[0] = 0
			for x, v := range drow {
				cur[x+1] = latticeCoord(v, twoEB)
			}
			for x, v := range drow {
				q := cur[x+1]
				d := q - (cur[x] + ly[x+1] + lz[x+1] - ly[x] - lz[x] - lyz[x+1] + lyz[x])
				if d > -r && d < r &&
					math.Abs(float64(float32(twoEB*float64(q)))-float64(v)) <= eb {
					srow[x] = int(d) + radius
				} else {
					srow[x] = 0
					outliers = appendFloat32(outliers, v)
				}
			}
			idx += nx
		}
	}
	s.outliers = outliers
	return symbols
}

// predict computes the causal prediction for cell (x,y,z) from the
// reconstructed buffer.
func predict(recon []float32, nx, ny int, x, y, z, idx int, p Predictor) float64 {
	// Causal neighbour offsets in the flat buffer.
	var fx, fy, fz, fxy, fxz, fyz, fxyz float64
	hasX, hasY, hasZ := x > 0, y > 0, z > 0
	if hasX {
		fx = float64(recon[idx-1])
	}
	if hasY {
		fy = float64(recon[idx-nx])
	}
	if hasZ {
		fz = float64(recon[idx-nx*ny])
	}
	if p == MeanNeighbor {
		var sum float64
		var cnt int
		if hasX {
			sum += fx
			cnt++
		}
		if hasY {
			sum += fy
			cnt++
		}
		if hasZ {
			sum += fz
			cnt++
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	if hasX && hasY {
		fxy = float64(recon[idx-1-nx])
	}
	if hasX && hasZ {
		fxz = float64(recon[idx-1-nx*ny])
	}
	if hasY && hasZ {
		fyz = float64(recon[idx-nx-nx*ny])
	}
	if hasX && hasY && hasZ {
		fxyz = float64(recon[idx-1-nx-nx*ny])
	}
	// First-order 3-D Lorenzo: missing neighbours contribute 0, which
	// makes boundary planes degrade gracefully to 2-D/1-D Lorenzo.
	return fx + fy + fz - fxy - fxz - fyz + fxyz
}

func appendFloat32(buf []byte, v float32) []byte {
	b := math.Float32bits(v)
	return append(buf, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
}
