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

	// codeStream is the Huffman-coded, RLE-expanded quantization stream.
	codeStream []byte
	// outliers are the verbatim values (ABS mode) or lattice coordinates
	// (pre-quantized mode) of unpredictable points, in encounter order.
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
	verbatim []bool
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

// verbatimBuf returns the reusable outlier-position flags, cleared. Unlike
// the lattice (every cell of which is written before it is read), stale
// true flags would survive reuse, so this buffer is zeroed.
func (s *Scratch) verbatimBuf(n int) []bool {
	if cap(s.verbatim) < n {
		s.verbatim = make([]bool, n)
		return s.verbatim[:n]
	}
	v := s.verbatim[:n]
	clear(v)
	return v
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
	if opt.QuantizeBeforePredict {
		symbols = quantizeThenPredict(work, nx, ny, nz, eb, opt, s)
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

// predictThenQuantize is the CPU-SZ formulation: predict from already
// reconstructed neighbours, quantize the residual in units of 2·eb, verify
// the bound, and fall back to a verbatim outlier when quantization cannot
// honour it. Symbol layout: 0 = outlier; [1, 2·radius) = code + radius.
// Outliers accumulate in s.outliers.
//
// The brick is walked as boundary planes plus a branch-free interior: for
// cells with x, y, z all > 0 every causal neighbour exists, so the Lorenzo
// stencil reads seven precomputed flat offsets with no existence tests.
// Boundary cells (~3/dim of a 64³ brick) go through the generic predictor,
// which also keeps their missing-neighbour float semantics bit-identical.
func predictThenQuantize(data []float32, nx, ny, nz int, eb float64, opt Options, s *Scratch) []int {
	n := len(data)
	radius := opt.radius()
	recon := s.reconBuf(n)
	symbols := s.symbolBuf(n)
	outliers := s.outlierBuf()
	twoEB := 2 * eb

	cell := func(x, y, z, idx int) {
		pred := predict(recon, nx, ny, x, y, z, idx, opt.Predictor)
		v := float64(data[idx])
		diff := v - pred
		q := int(math.Floor(diff/twoEB + 0.5))
		if q > -radius && q < radius {
			// The explicit conversion rounds the product, so no
			// architecture fuses it into an FMA the decoder may not match.
			dec := pred + float64(twoEB*float64(q))
			// Float rounding can push the reconstruction just past the
			// bound; verify like SZ does.
			if math.Abs(float64(float32(dec))-v) <= eb {
				symbols[idx] = q + radius
				recon[idx] = float32(dec)
				return
			}
		}
		symbols[idx] = 0
		outliers = appendFloat32(outliers, data[idx])
		recon[idx] = data[idx]
	}

	if opt.Predictor != Lorenzo3D {
		idx := 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					cell(x, y, z, idx)
					idx++
				}
			}
		}
		s.outliers = outliers
		return symbols
	}

	nxny := nx * ny
	idx := 0
	for y := 0; y < ny; y++ { // z == 0 plane
		for x := 0; x < nx; x++ {
			cell(x, y, 0, idx)
			idx++
		}
	}
	for z := 1; z < nz; z++ {
		for x := 0; x < nx; x++ { // y == 0 row
			cell(x, 0, z, idx)
			idx++
		}
		for y := 1; y < ny; y++ {
			cell(0, y, z, idx) // x == 0 cell
			rowStart := idx
			idx += nx
			// Row views over the current row and its three causal
			// neighbour rows: same-length slices let the compiler drop the
			// bounds checks on the seven stencil reads.
			cur := recon[rowStart : rowStart+nx]
			py := recon[rowStart-nx : rowStart-nx+nx]
			pz := recon[rowStart-nxny : rowStart-nxny+nx]
			pyz := recon[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			drow := data[rowStart : rowStart+nx]
			srow := symbols[rowStart : rowStart+nx]
			// prev carries float64(cur[x-1]) across iterations so the
			// loop-carried dependency skips the store/load/convert of the
			// just-written neighbour.
			prev := float64(cur[0])
			for x := 1; x < nx; x++ {
				fy := float64(py[x])
				fz := float64(pz[x])
				fxy := float64(py[x-1])
				fxz := float64(pz[x-1])
				fyz := float64(pyz[x])
				fxyz := float64(pyz[x-1])
				pred := prev + fy + fz - fxy - fxz - fyz + fxyz
				v := float64(drow[x])
				q := int(math.Floor((v-pred)/twoEB + 0.5))
				if q > -radius && q < radius {
					dec := pred + float64(twoEB*float64(q))
					decF := float32(dec)
					decR := float64(decF)
					if math.Abs(decR-v) <= eb {
						srow[x] = q + radius
						cur[x] = decF
						prev = decR
						continue
					}
				}
				srow[x] = 0
				outliers = appendFloat32(outliers, drow[x])
				cur[x] = drow[x]
				prev = float64(drow[x])
			}
		}
	}
	s.outliers = outliers
	return symbols
}

// quantizeThenPredict is the GPU-SZ/cuSZ formulation: values are first
// snapped to the 2·eb lattice, then Lorenzo runs on the lattice integers.
// Outliers store the verbatim fp32 value (accumulated in s.outliers); the
// decoder re-derives the lattice coordinate from it, so encoder and decoder
// lattices agree bit-exactly. A point also becomes an outlier when fp32
// rounding of the lattice reconstruction would breach the bound, keeping
// the error-bound guarantee strict.
//
// The loop is split like predictThenQuantize: the interior runs the integer
// Lorenzo stencil branch-free over precomputed flat offsets.
func quantizeThenPredict(data []float32, nx, ny, nz int, eb float64, opt Options, s *Scratch) []int {
	n := len(data)
	radius := opt.radius()
	twoEB := 2 * eb
	lattice := s.latticeBuf(n)
	for i, v := range data {
		lattice[i] = int64(math.Floor(float64(v)/twoEB + 0.5))
	}
	symbols := s.symbolBuf(n)
	outliers := s.outlierBuf()

	cell := func(x, y, z, idx int) {
		pred := predictInt(lattice, nx, ny, x, y, z)
		d := lattice[idx] - pred
		inRange := d > int64(-radius) && d < int64(radius)
		exact := math.Abs(float64(float32(twoEB*float64(lattice[idx])))-
			float64(data[idx])) <= eb
		if inRange && exact {
			symbols[idx] = int(d) + radius
		} else {
			symbols[idx] = 0
			outliers = appendFloat32(outliers, data[idx])
		}
	}

	nxny := nx * ny
	idx := 0
	for y := 0; y < ny; y++ { // z == 0 plane
		for x := 0; x < nx; x++ {
			cell(x, y, 0, idx)
			idx++
		}
	}
	for z := 1; z < nz; z++ {
		for x := 0; x < nx; x++ { // y == 0 row
			cell(x, 0, z, idx)
			idx++
		}
		for y := 1; y < ny; y++ {
			cell(0, y, z, idx) // x == 0 cell
			rowStart := idx
			idx += nx
			cur := lattice[rowStart : rowStart+nx]
			ly := lattice[rowStart-nx : rowStart-nx+nx]
			lz := lattice[rowStart-nxny : rowStart-nxny+nx]
			lyz := lattice[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			drow := data[rowStart : rowStart+nx]
			srow := symbols[rowStart : rowStart+nx]
			for x := 1; x < nx; x++ {
				pred := cur[x-1] + ly[x] + lz[x] - ly[x-1] - lz[x-1] - lyz[x] + lyz[x-1]
				d := cur[x] - pred // lattice is precomputed; no carried store here
				inRange := d > int64(-radius) && d < int64(radius)
				exact := math.Abs(float64(float32(twoEB*float64(cur[x])))-
					float64(drow[x])) <= eb
				if inRange && exact {
					srow[x] = int(d) + radius
				} else {
					srow[x] = 0
					outliers = appendFloat32(outliers, drow[x])
				}
			}
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

// predictInt is the Lorenzo predictor on the integer lattice.
func predictInt(lat []int64, nx, ny int, x, y, z int) int64 {
	idx := (z*ny+y)*nx + x
	var fx, fy, fz, fxy, fxz, fyz, fxyz int64
	hasX, hasY, hasZ := x > 0, y > 0, z > 0
	if hasX {
		fx = lat[idx-1]
	}
	if hasY {
		fy = lat[idx-nx]
	}
	if hasZ {
		fz = lat[idx-nx*ny]
	}
	if hasX && hasY {
		fxy = lat[idx-1-nx]
	}
	if hasX && hasZ {
		fxz = lat[idx-1-nx*ny]
	}
	if hasY && hasZ {
		fyz = lat[idx-nx-nx*ny]
	}
	if hasX && hasY && hasZ {
		fxyz = lat[idx-1-nx-nx*ny]
	}
	return fx + fy + fz - fxy - fxz - fyz + fxyz
}

func appendFloat32(buf []byte, v float32) []byte {
	b := math.Float32bits(v)
	return append(buf, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
}
