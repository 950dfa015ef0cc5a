// Package zfp implements a simplified ZFP-style fixed-rate transform codec
// (Lindstrom 2014), the compressor the paper compares SZ against before
// choosing SZ (Sec. 2.2: ZFP offers fixed-rate mode but lacks the absolute
// error-bound mode the method needs). It exists so the repository can
// substantiate that choice with a measured rate-distortion comparison
// (see the compressor ablation in internal/experiments).
//
// The pipeline follows ZFP's structure:
//
//  1. partition the field into 4×4×4 blocks (edge blocks are padded by
//     replicating the last layer);
//  2. block-floating-point: align all 64 values to the block's largest
//     exponent and convert to fixed point;
//  3. the reversible integer lifting transform along x, y, z;
//  4. reorder coefficients by total sequency;
//  5. negabinary mapping and embedded group-tested bit-plane coding,
//     truncated at the per-block bit budget (rate × 64 bits).
//
// Unlike internal/sz the codec is fixed-rate, not error-bounded: the
// compressed size is exact and the pointwise error is whatever the budget
// allows — precisely the trade-off the paper rejects for its use case.
//
// The hot path is word-based and block-parallel while emitting exactly the
// bitstream of the original per-bit serial coder (pinned by the
// differential suite in reference_test.go and the golden fixtures in
// internal/core): bit planes are emitted and consumed as 64-bit words, the
// 4³ blocks are sharded over the shared worker pool (internal/parallel)
// into per-chunk bit buffers spliced back in block order, and a compression
// can record per-block bit offsets (CompressIndexed) from which any
// lower-rate stream, size, or reconstruction is derived without
// recompressing — the basis of the error-bounded path (CompressBounded in
// bounded.go). What a lower rate derives is a prefix of the bits, not a
// smaller error: a block's max error is not monotone in its budget, so a
// rate is known to meet a bound only once it has been checked.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/apierr"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/parallel"
)

const (
	blockDim        = 4
	blockSize       = blockDim * blockDim * blockDim // 64
	maxPlanes       = 40                             // fixed-point precision in bit planes
	guardBits       = 4                              // transform headroom
	headerSize      = 28
	magic           = "ZFPG"
	blockHeaderBits = 13 // 1-bit zero flag + 12-bit biased exponent

	// minParallelBlocks gates block-level fan-out: below it (the engine's
	// 16³ partitions are 64 blocks) the serial word-based path wins, above
	// it blocks are sharded into chunks over the shared pool — unless the
	// pool has no helpers (GOMAXPROCS 1), where serial skips the splice
	// and boundary-scan overhead. The chunk layout is a function of the
	// block count alone, so the spliced stream is byte-identical whatever
	// the worker count.
	minParallelBlocks = 256
	// chunkBlocks is the static shard size for the parallel paths.
	chunkBlocks = 128

	// maxBlocksPerAxis caps header-claimed dimensions in Parse (2²⁰ blocks
	// per axis ≈ 4M cells per axis) so hostile headers cannot overflow the
	// block count or drive absurd preallocation.
	maxBlocksPerAxis = 1 << 20
)

// Options configures fixed-rate compression.
type Options struct {
	// Rate is the bit budget per value (0.5 ≤ Rate ≤ 32).
	Rate float64
}

// Validate checks the options.
func (o Options) Validate() error {
	if !(o.Rate >= 0.5 && o.Rate <= 32) { // NaN-safe: NaN fails both sides
		return fmt.Errorf("zfp: rate %v outside [0.5, 32]", o.Rate)
	}
	return nil
}

// budgetOf is the per-block bit budget at a rate.
func budgetOf(rate float64) int {
	budget := int(rate * blockSize)
	if budget < blockSize/8 {
		budget = blockSize / 8
	}
	return budget
}

// Compressed is one fixed-rate compressed field.
type Compressed struct {
	Nx, Ny, Nz int
	Rate       float64
	payload    []byte
}

// N returns the number of cells.
func (c *Compressed) N() int { return c.Nx * c.Ny * c.Nz }

// CompressedSize returns the total size in bytes including the header.
func (c *Compressed) CompressedSize() int { return headerSize + len(c.payload) }

// BitRate returns achieved bits per value (≈ Rate plus header amortization
// and block padding).
func (c *Compressed) BitRate() float64 {
	return float64(c.CompressedSize()) * 8 / float64(c.N())
}

// Ratio returns the compression ratio relative to fp32.
func (c *Compressed) Ratio() float64 {
	return float64(4*c.N()) / float64(c.CompressedSize())
}

// layout is the 4³ block grid of a field.
type layout struct {
	cbx, cby, cbz int
}

func layoutOf(nx, ny, nz int) layout {
	return layout{
		cbx: (nx + blockDim - 1) / blockDim,
		cby: (ny + blockDim - 1) / blockDim,
		cbz: (nz + blockDim - 1) / blockDim,
	}
}

func (l layout) blocks() int { return l.cbx * l.cby * l.cbz }

// origin maps a linear block index (x-fastest, matching the serial coder's
// loop nest) to the block's cell origin.
func (l layout) origin(b int) (x0, y0, z0 int) {
	return (b % l.cbx) * blockDim,
		(b / l.cbx % l.cby) * blockDim,
		(b / (l.cbx * l.cby)) * blockDim
}

// sequency is the coefficient visiting order: by total frequency i+j+k,
// ties broken lexicographically — a precomputed permutation of [0,64).
var sequency = buildSequency()

func buildSequency() [blockSize]int {
	type entry struct{ idx, key int }
	var entries []entry
	for z := 0; z < blockDim; z++ {
		for y := 0; y < blockDim; y++ {
			for x := 0; x < blockDim; x++ {
				idx := (z*blockDim+y)*blockDim + x
				// key: total sequency first, then coordinates for a
				// stable, deterministic order.
				key := (x+y+z)<<12 | z<<8 | y<<4 | x
				entries = append(entries, entry{idx, key})
			}
		}
	}
	for i := 1; i < len(entries); i++ { // insertion sort, tiny n
		for j := i; j > 0 && entries[j].key < entries[j-1].key; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	var out [blockSize]int
	for rank, e := range entries {
		out[rank] = e.idx
	}
	return out
}

// liftForward is ZFP's reversible 4-point integer lifting transform.
func liftForward(p []int64, stride int) {
	x := p[0*stride]
	y := p[1*stride]
	z := p[2*stride]
	w := p[3*stride]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0*stride] = x
	p[1*stride] = y
	p[2*stride] = z
	p[3*stride] = w
}

// liftInverse is ZFP's inverse lift. Like the original, it reverses
// liftForward only up to the low bits the forward shifts discard — the
// transform is nearly orthogonal, not bit-exact, which is fine for a codec
// that truncates bit planes anyway (the guard bits absorb the loss).
func liftInverse(p []int64, stride int) {
	x := p[0*stride]
	y := p[1*stride]
	z := p[2*stride]
	w := p[3*stride]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0*stride] = x
	p[1*stride] = y
	p[2*stride] = z
	p[3*stride] = w
}

// transformBlock applies the lifting along each axis (forward).
func transformBlock(b *[blockSize]int64) {
	// x lines
	for z := 0; z < blockDim; z++ {
		for y := 0; y < blockDim; y++ {
			liftForward(b[(z*blockDim+y)*blockDim:], 1)
		}
	}
	// y lines
	for z := 0; z < blockDim; z++ {
		for x := 0; x < blockDim; x++ {
			liftForward(b[z*blockDim*blockDim+x:], blockDim)
		}
	}
	// z lines
	for y := 0; y < blockDim; y++ {
		for x := 0; x < blockDim; x++ {
			liftForward(b[y*blockDim+x:], blockDim*blockDim)
		}
	}
}

func inverseBlock(b *[blockSize]int64) {
	for y := 0; y < blockDim; y++ {
		for x := 0; x < blockDim; x++ {
			liftInverse(b[y*blockDim+x:], blockDim*blockDim)
		}
	}
	for z := 0; z < blockDim; z++ {
		for x := 0; x < blockDim; x++ {
			liftInverse(b[z*blockDim*blockDim+x:], blockDim)
		}
	}
	for z := 0; z < blockDim; z++ {
		for y := 0; y < blockDim; y++ {
			liftInverse(b[(z*blockDim+y)*blockDim:], 1)
		}
	}
}

// negabinary maps signed to unsigned such that magnitude ordering is
// roughly preserved across bit planes.
func negabinary(x int64) uint64 {
	const mask = 0xaaaaaaaaaaaaaaaa
	return (uint64(x) + mask) ^ mask
}

func negabinaryInv(u uint64) int64 {
	const mask = 0xaaaaaaaaaaaaaaaa
	return int64((u ^ mask) - mask)
}

// blockState is the per-worker working set of one block: gathered values,
// fixed-point lattice, and the coefficient bit matrix in sequency order.
// planes doubles as both orientations of that matrix: coefficient-major
// (word i = coefficient i's bits) and plane-major (word 63−p = plane p with
// coefficient 0 at the MSB); transpose64 flips between them in ~6×64 word
// ops, so neither coder ever gathers a bit plane one coefficient at a time.
type blockState struct {
	vals   [blockSize]float64
	ints   [blockSize]int64
	planes [blockSize]uint64
}

// transpose64 transposes a 64×64 bit matrix in place (rows are words, the
// MSB is column 0) — the standard masked block-swap network.
func transpose64(a *[blockSize]uint64) {
	j := 32
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < blockSize; k = (k + j + 1) &^ j {
			t := (a[k] ^ (a[k+j] >> uint(j))) & m
			a[k] ^= t
			a[k+j] ^= t << uint(j)
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

// planeOf maps bit plane p to its row in the plane-major orientation.
func planeOf(p int) int { return blockSize - 1 - p }

// Scratch holds the reusable state of one compression/decompression
// context: the stream writer and reader, the caller-side block state, and
// the chunk bookkeeping of the parallel paths. Pooling one Scratch per
// engine worker (the codec layer does this) makes the steady-state zfp
// path allocation-flat the way sz.Scratch does for SZ. A Scratch must not
// be used concurrently; the zero value is ready to use.
type Scratch struct {
	st     blockState
	w      *huffman.BitWriter
	r      *huffman.BitReader
	starts []int
	chunkW []*huffman.BitWriter
	bitLen []int
}

func (s *Scratch) writer(capBytes int) *huffman.BitWriter {
	if s.w == nil {
		s.w = huffman.NewBitWriter(capBytes)
	}
	s.w.Reset()
	return s.w
}

func (s *Scratch) reader(buf []byte) *huffman.BitReader {
	if s.r == nil {
		s.r = huffman.NewBitReader(buf)
		return s.r
	}
	s.r.Reset(buf)
	return s.r
}

func (s *Scratch) startsBuf(n int) []int {
	if cap(s.starts) < n {
		s.starts = make([]int, n)
	}
	return s.starts[:n]
}

func (s *Scratch) chunkBufs(n int) ([]*huffman.BitWriter, []int) {
	if cap(s.chunkW) < n {
		s.chunkW = make([]*huffman.BitWriter, n)
		s.bitLen = make([]int, n)
	}
	return s.chunkW[:n], s.bitLen[:n]
}

// scratchPool backs the scratchless entry points so casual callers still
// hit warm buffers.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// workerPool holds the per-helper block state and stream cursors of the
// chunk-parallel paths (helpers cannot share the caller's Scratch).
type chunkWorker struct {
	st blockState
	r  *huffman.BitReader
}

var workerPool = sync.Pool{New: func() any {
	return &chunkWorker{r: huffman.NewBitReader(nil)}
}}

// writerPool holds the per-chunk bit buffers of the parallel encoder; they
// are checked out by encode workers and released after the splice.
var writerPool = sync.Pool{New: func() any { return huffman.NewBitWriter(0) }}

// Compress compresses a field at the fixed rate.
func Compress(f *grid.Field3D, opt Options) (*Compressed, error) {
	return CompressWith(f, opt, nil)
}

// CompressWith is Compress with a caller-owned Scratch, for allocation-flat
// steady-state compression of many equally sized bricks.
func CompressWith(f *grid.Field3D, opt Options, s *Scratch) (*Compressed, error) {
	c, _, err := compress(f, opt, s, false)
	return c, err
}

func compress(f *grid.Field3D, opt Options, s *Scratch, wantIndex bool) (*Compressed, []int, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if f == nil || f.Len() == 0 {
		return nil, nil, errors.New("zfp: empty field")
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(ps)
		s = ps
	}
	var starts []int
	if wantIndex {
		starts = make([]int, layoutOf(f.Nx, f.Ny, f.Nz).blocks()+1) // retained by the Indexed
	}
	payload := append([]byte(nil), encode(f, opt.Rate, starts, s)...)
	return &Compressed{Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, Rate: opt.Rate, payload: payload}, starts, nil
}

// encode writes f's blocks at the rate into the scratch writer and returns
// the stream, which s still owns (valid until s next compresses or
// splices); starts, when non-nil, receives the per-block bit offsets.
func encode(f *grid.Field3D, rate float64, starts []int, s *Scratch) []byte {
	budget := budgetOf(rate)
	l := layoutOf(f.Nx, f.Ny, f.Nz)
	n := l.blocks()
	w := s.writer(f.Len() / 2)
	if n < minParallelBlocks || parallel.Limit() == 0 {
		st := &s.st
		for b := 0; b < n; b++ {
			if starts != nil {
				starts[b] = w.BitLen()
			}
			x0, y0, z0 := l.origin(b)
			st.encodeBlock(w, f, x0, y0, z0, budget)
		}
		if starts != nil {
			starts[n] = w.BitLen()
		}
	} else {
		compressChunked(w, f, l, budget, starts, s)
	}
	return w.Bytes()
}

// compressChunked shards the block range into fixed-size chunks over the
// shared worker pool. Each chunk encodes into its own bit buffer; the
// buffers are spliced back in block order, so the stream is byte-identical
// to the serial one regardless of how many workers participated.
func compressChunked(w *huffman.BitWriter, f *grid.Field3D, l layout, budget int, starts []int, s *Scratch) {
	n := l.blocks()
	nChunks := (n + chunkBlocks - 1) / chunkBlocks
	chunkW, bitLen := s.chunkBufs(nChunks)
	parallel.Workers(nChunks, 0, func(next func() (int, bool)) {
		cw := workerPool.Get().(*chunkWorker)
		defer workerPool.Put(cw)
		for c, ok := next(); ok; c, ok = next() {
			bw := writerPool.Get().(*huffman.BitWriter)
			bw.Reset()
			lo := c * chunkBlocks
			hi := lo + chunkBlocks
			if hi > n {
				hi = n
			}
			for b := lo; b < hi; b++ {
				if starts != nil {
					starts[b] = bw.BitLen() // chunk-relative; rebased below
				}
				x0, y0, z0 := l.origin(b)
				cw.st.encodeBlock(bw, f, x0, y0, z0, budget)
			}
			bitLen[c] = bw.BitLen()
			chunkW[c] = bw
		}
	})
	base := 0
	for c := 0; c < nChunks; c++ {
		bw := chunkW[c]
		w.AppendBitRange(bw.Bytes(), 0, bitLen[c])
		if starts != nil {
			lo := c * chunkBlocks
			hi := lo + chunkBlocks
			if hi > n {
				hi = n
			}
			for b := lo; b < hi; b++ {
				starts[b] += base
			}
		}
		base += bitLen[c]
		chunkW[c] = nil
		writerPool.Put(bw)
	}
	if starts != nil {
		starts[n] = base
	}
}

// gatherBlock copies a 4³ block, clamping coordinates at the field edge
// (replication padding).
func gatherBlock(f *grid.Field3D, x0, y0, z0 int, out *[blockSize]float64) {
	for dz := 0; dz < blockDim; dz++ {
		z := min(z0+dz, f.Nz-1)
		for dy := 0; dy < blockDim; dy++ {
			y := min(y0+dy, f.Ny-1)
			for dx := 0; dx < blockDim; dx++ {
				x := min(x0+dx, f.Nx-1)
				out[(dz*blockDim+dy)*blockDim+dx] = float64(f.At(x, y, z))
			}
		}
	}
}

// encodeBlock writes one block: 1 bit all-zero flag, 12-bit biased
// exponent, then the embedded coefficient planes up to the bit budget.
func (st *blockState) encodeBlock(w *huffman.BitWriter, f *grid.Field3D, x0, y0, z0, budget int) {
	gatherBlock(f, x0, y0, z0, &st.vals)
	// Block exponent.
	var maxAbs float64
	for _, v := range st.vals {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		w.WriteBit(0) // all-zero block
		return
	}
	w.WriteBit(1)
	emax := math.Ilogb(maxAbs)
	w.WriteBits(uint64(emax+2048), 12)

	// Fixed point: scale so values fit maxPlanes bits with guard room.
	scale := math.Ldexp(1, maxPlanes-guardBits-1-emax)
	for i, v := range st.vals {
		st.ints[i] = int64(v * scale)
	}
	transformBlock(&st.ints)

	// Negabinary in sequency order, then flip the bit matrix plane-major.
	for rank, idx := range sequency {
		st.planes[rank] = negabinary(st.ints[idx])
	}
	transpose64(&st.planes)
	encodePlanes(w, &st.planes, budget)
}

// encodePlanes is the embedded group-tested bit-plane coder, emitting whole
// runs and verbatim prefixes as words. It produces exactly the bit sequence
// of the per-bit reference coder (refEncodePlanes in reference_test.go):
// per plane, sigPrefix verbatim bits for the already-significant prefix,
// then alternating group tests and zero-run+1 spans over the tail, the
// whole stream cut off at the bit budget. The budget acts as a pure
// truncation point — a smaller budget yields a strict prefix of a larger
// budget's block stream, the property Indexed is built on.
func encodePlanes(w *huffman.BitWriter, planes *[blockSize]uint64, budget int) {
	spent := 0
	sigPrefix := 0
	for plane := maxPlanes - 1; plane >= 0 && spent < budget; plane-- {
		word := planes[planeOf(plane)] // coefficient 0 at the MSB
		// Verbatim bits for the significant prefix, coefficient 0 first.
		if sigPrefix > 0 {
			n := sigPrefix
			if rem := budget - spent; n > rem {
				n = rem
			}
			w.WriteBits64(word>>(64-uint(n)), uint(n))
			spent += n
			if spent >= budget {
				return
			}
		}
		// Group-test the tail: a 1 test bit opens a zero-run ended by the
		// next significant coefficient, a 0 test bit closes the plane.
		i := sigPrefix
		for i < blockSize && spent < budget {
			rest := word << uint(i)
			if rest == 0 {
				w.WriteBit(0)
				spent++
				break
			}
			w.WriteBit(1) // group test: a significant coefficient is ahead
			spent++
			if spent >= budget {
				return
			}
			lz := bits.LeadingZeros64(rest)
			n := lz + 1 // the zero-run plus its terminating 1
			pattern := uint64(1)
			if rem := budget - spent; n > rem {
				pattern = 0 // truncated: only the run's leading zeros fit
				n = rem
			}
			w.WriteBits64(pattern, uint(n))
			spent += n
			i += lz + 1
		}
		if i > sigPrefix {
			sigPrefix = i
		}
	}
}

// Decompress reconstructs the field.
func Decompress(c *Compressed) (*grid.Field3D, error) {
	return DecompressWith(c, nil)
}

// DecompressWith is Decompress with a caller-owned Scratch.
func DecompressWith(c *Compressed, s *Scratch) (*grid.Field3D, error) {
	if c.Nx <= 0 || c.Ny <= 0 || c.Nz <= 0 {
		return nil, errors.New("zfp: invalid dimensions")
	}
	if err := (Options{Rate: c.Rate}).Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(ps)
		s = ps
	}
	out := grid.NewField3D(c.Nx, c.Ny, c.Nz)
	if err := c.decodeInto(out, budgetOf(c.Rate), s); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Compressed) decodeInto(out *grid.Field3D, budget int, s *Scratch) error {
	l := layoutOf(c.Nx, c.Ny, c.Nz)
	n := l.blocks()
	if n < minParallelBlocks || parallel.Limit() == 0 {
		r := s.reader(c.payload)
		st := &s.st
		for b := 0; b < n; b++ {
			x0, y0, z0 := l.origin(b)
			if err := st.decodeBlock(r, budget); err != nil {
				return fmt.Errorf("zfp: block (%d,%d,%d): %w", x0, y0, z0, err)
			}
			scatterBlock(out, x0, y0, z0, &st.vals)
		}
		return nil
	}
	// Block lengths are data-dependent, so parallel decode needs the block
	// boundaries first: a word-based scan walks the group-test structure
	// without reconstructing coefficients, then chunks decode concurrently
	// from their bit offsets.
	starts := s.startsBuf(n + 1)
	if err := scanStarts(c.payload, l, budget, starts, s); err != nil {
		return err
	}
	return decodeChunked(out, c.payload, l, budget, budget, starts)
}

// decodeChunked decodes blocks [0, layout.blocks()) concurrently given
// their bit offsets. streamBudget is the budget the stream was encoded at
// (bounding each block's stored bits); budget ≤ streamBudget is the budget
// to decode at — smaller values reconstruct the lower-rate truncation.
func decodeChunked(out *grid.Field3D, payload []byte, l layout, streamBudget, budget int, starts []int) error {
	n := l.blocks()
	nChunks := (n + chunkBlocks - 1) / chunkBlocks
	var firstErr error
	var mu sync.Mutex
	parallel.Workers(nChunks, 0, func(next func() (int, bool)) {
		cw := workerPool.Get().(*chunkWorker)
		defer workerPool.Put(cw)
		cw.r.Reset(payload)
		for c, ok := next(); ok; c, ok = next() {
			lo := c * chunkBlocks
			hi := lo + chunkBlocks
			if hi > n {
				hi = n
			}
			if err := decodeRange(out, l, streamBudget, budget, starts, lo, hi, &cw.st, cw.r); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
		}
	})
	return firstErr
}

// decodeRange decodes blocks [lo, hi), seeking to each block's recorded bit
// offset (decoding at a smaller budget than the stream's consumes fewer
// bits than the block stores, so sequential reads would misalign).
func decodeRange(out *grid.Field3D, l layout, streamBudget, budget int, starts []int, lo, hi int, st *blockState, r *huffman.BitReader) error {
	if budget > streamBudget {
		budget = streamBudget
	}
	for b := lo; b < hi; b++ {
		if err := r.SeekBit(starts[b]); err != nil {
			return err
		}
		x0, y0, z0 := l.origin(b)
		if err := st.decodeBlock(r, budget); err != nil {
			return fmt.Errorf("zfp: block (%d,%d,%d): %w", x0, y0, z0, err)
		}
		scatterBlock(out, x0, y0, z0, &st.vals)
	}
	return nil
}

func (st *blockState) decodeBlock(r *huffman.BitReader, budget int) error {
	zeroFlag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if zeroFlag == 0 {
		for i := range st.vals {
			st.vals[i] = 0
		}
		return nil
	}
	e, err := r.ReadBits(12)
	if err != nil {
		return err
	}
	emax := int(e) - 2048
	for i := range st.planes {
		st.planes[i] = 0
	}
	visited, err := decodePlanes(r, &st.planes, budget)
	if err != nil {
		return err
	}
	// Back to coefficient-major: a full matrix transpose pays off only when
	// many planes were decoded; shallow decodes (low rates, the error-bound
	// search's early rounds) scatter their few set bits directly.
	const scatterPlanes = 12
	if visited <= scatterPlanes {
		var coeffs [blockSize]uint64
		for p := maxPlanes - 1; p >= maxPlanes-visited; p-- {
			for w := st.planes[planeOf(p)]; w != 0; w &= w - 1 {
				coeffs[63-bits.TrailingZeros64(w)] |= 1 << uint(p)
			}
		}
		for rank, idx := range sequency {
			st.ints[idx] = negabinaryInv(coeffs[rank])
		}
	} else {
		transpose64(&st.planes) // plane-major back to coefficient-major
		for rank, idx := range sequency {
			st.ints[idx] = negabinaryInv(st.planes[rank])
		}
	}
	inverseBlock(&st.ints)
	scale := math.Ldexp(1, -(maxPlanes - guardBits - 1 - emax))
	for i, v := range st.ints {
		st.vals[i] = float64(v) * scale
	}
	return nil
}

// decodePlanes mirrors encodePlanes word for word: verbatim prefixes are
// read as one word, zero-runs are consumed with a single unary read, and
// the plane-major words are accumulated for one transpose back in
// decodeBlock. Control flow (and therefore bit consumption) is identical
// to the per-bit reference decoder.
func decodePlanes(r *huffman.BitReader, planes *[blockSize]uint64, budget int) (visited int, err error) {
	spent := 0
	sigPrefix := 0
	for plane := maxPlanes - 1; plane >= 0 && spent < budget; plane-- {
		visited++
		var word uint64 // coefficient 0 at the MSB
		if sigPrefix > 0 {
			n := sigPrefix
			if rem := budget - spent; n > rem {
				n = rem
			}
			v, err := r.ReadBits64(uint(n))
			if err != nil {
				return visited, err
			}
			spent += n
			word = v << (64 - uint(n))
			if spent >= budget {
				planes[planeOf(plane)] = word
				return visited, nil
			}
		}
		i := sigPrefix
		for i < blockSize {
			if spent >= budget {
				planes[planeOf(plane)] = word
				return visited, nil
			}
			any, err := r.ReadBit()
			if err != nil {
				return visited, err
			}
			spent++
			if any == 0 {
				break
			}
			run := blockSize - i
			if rem := budget - spent; rem < run {
				run = rem
			}
			zeros, saw, err := r.ReadUnary(uint(run))
			if err != nil {
				return visited, err
			}
			spent += int(zeros)
			i += int(zeros)
			if saw {
				spent++
				word |= 1 << uint(63-i)
				i++
				continue
			}
			planes[planeOf(plane)] = word
			if i >= blockSize {
				break
			}
			return visited, nil // budget exhausted mid-run
		}
		planes[planeOf(plane)] = word
		if i > sigPrefix {
			sigPrefix = i
		}
	}
	return visited, nil
}

// scanStarts records every block's bit offset by walking the group-test
// structure without reconstructing coefficients — the boundary pass that
// makes parallel decode possible on a stream with data-dependent block
// lengths. It consumes exactly the bits the decoder would.
func scanStarts(payload []byte, l layout, budget int, starts []int, s *Scratch) error {
	r := s.reader(payload)
	n := l.blocks()
	for b := 0; b < n; b++ {
		starts[b] = r.BitPos()
		if err := scanBlock(r, budget); err != nil {
			x0, y0, z0 := l.origin(b)
			return fmt.Errorf("zfp: block (%d,%d,%d): %w", x0, y0, z0, err)
		}
	}
	starts[n] = r.BitPos()
	return nil
}

func scanBlock(r *huffman.BitReader, budget int) error {
	zeroFlag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if zeroFlag == 0 {
		return nil
	}
	if err := r.Skip(12); err != nil {
		return err
	}
	spent := 0
	sigPrefix := 0
	for plane := maxPlanes - 1; plane >= 0 && spent < budget; plane-- {
		if sigPrefix > 0 {
			n := sigPrefix
			if rem := budget - spent; n > rem {
				n = rem
			}
			if err := r.Skip(n); err != nil {
				return err
			}
			spent += n
			if spent >= budget {
				return nil
			}
		}
		i := sigPrefix
		for i < blockSize {
			if spent >= budget {
				return nil
			}
			any, err := r.ReadBit()
			if err != nil {
				return err
			}
			spent++
			if any == 0 {
				break
			}
			run := blockSize - i
			if rem := budget - spent; rem < run {
				run = rem
			}
			zeros, saw, err := r.ReadUnary(uint(run))
			if err != nil {
				return err
			}
			spent += int(zeros)
			i += int(zeros)
			if saw {
				spent++
				i++
				continue
			}
			if i >= blockSize {
				break
			}
			return nil
		}
		if i > sigPrefix {
			sigPrefix = i
		}
	}
	return nil
}

func scatterBlock(f *grid.Field3D, x0, y0, z0 int, vals *[blockSize]float64) {
	for dz := 0; dz < blockDim && z0+dz < f.Nz; dz++ {
		for dy := 0; dy < blockDim && y0+dy < f.Ny; dy++ {
			for dx := 0; dx < blockDim && x0+dx < f.Nx; dx++ {
				f.Set(x0+dx, y0+dy, z0+dz, float32(vals[(dz*blockDim+dy)*blockDim+dx]))
			}
		}
	}
}

// Indexed is a compression carrying per-block bit accounting, produced by
// CompressIndexed at the highest rate the caller will ever derive. Because
// the plane coder's budget is a pure truncation point — a block's bits at
// budget B are exactly the first min(B, stored) bits of the same block at
// any larger budget — one max-rate compression contains every lower-rate
// stream as per-block prefixes:
//
//   - PredictSize gives the exact compressed size at any lower rate from
//     the length table alone;
//   - DecompressAtRateInto reconstructs the field at any lower rate;
//   - TruncateToRate splices the lower-rate stream itself, byte-identical
//     to a direct Compress at that rate;
//   - firstFailing judges a lower rate against an error bound block by
//     block, without reconstructing the field (CompressBounded).
//
// The bits nest; the errors do not. Truncating a block deeper usually
// shrinks its max error but not always, so nothing here may assume that a
// rate meets a bound because a lower one did.
type Indexed struct {
	C *Compressed
	// starts[b] is the absolute bit offset of block b in C's payload;
	// the final entry is the total bit length before byte padding.
	starts []int
}

// CompressIndexed compresses like CompressWith while recording the
// per-block bit accounting (one extra slice; the stream is unchanged).
func CompressIndexed(f *grid.Field3D, opt Options, s *Scratch) (*Indexed, error) {
	c, starts, err := compress(f, opt, s, true)
	if err != nil {
		return nil, err
	}
	return &Indexed{C: c, starts: starts}, nil
}

// Starts exposes the per-block bit-offset table: Starts()[b] is the
// absolute bit offset of block b in the payload, and the final entry is
// the total bit length before byte padding. The slice is the index's own
// backing store — callers must treat it as read-only. It exists so the
// accounting can be persisted (an archive server's sidecar index) and
// rehydrated later with NewIndexed instead of rescanning the stream.
func (ix *Indexed) Starts() []int { return ix.starts }

// NewIndexed rebinds a persisted bit-offset table to a parsed max-rate
// stream — the sidecar-index load path. The table is validated against the
// stream's geometry (one entry per block plus the terminator, offsets
// monotone, first at bit 0, last within the payload) so a stale or
// corrupt sidecar surfaces as apierr.ErrCorruptArchive instead of an
// out-of-bounds splice.
func NewIndexed(c *Compressed, starts []int) (*Indexed, error) {
	l := layoutOf(c.Nx, c.Ny, c.Nz)
	n := l.blocks()
	if len(starts) != n+1 {
		return nil, fmt.Errorf("zfp: %w: index has %d entries, stream has %d blocks", apierr.ErrCorruptArchive, len(starts), n)
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("zfp: %w: index does not start at bit 0", apierr.ErrCorruptArchive)
	}
	for b := 0; b < n; b++ {
		if starts[b+1] < starts[b] {
			return nil, fmt.Errorf("zfp: %w: index offsets not monotone at block %d", apierr.ErrCorruptArchive, b)
		}
	}
	if starts[n] > len(c.payload)*8 {
		return nil, fmt.Errorf("zfp: %w: index claims %d bits, payload has %d", apierr.ErrCorruptArchive, starts[n], len(c.payload)*8)
	}
	return &Indexed{C: c, starts: starts}, nil
}

// Reindex rebuilds the per-block bit accounting of a parsed stream by
// walking its group-test structure — the recovery path when a
// compression-time index (CompressIndexed) or persisted sidecar is not
// available. The scan consumes exactly the bits the decoder would, so the
// result is identical to what CompressIndexed would have recorded.
func Reindex(c *Compressed) (*Indexed, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	l := layoutOf(c.Nx, c.Ny, c.Nz)
	n := l.blocks()
	starts := make([]int, n+1)
	if err := scanStarts(c.payload, l, budgetOf(c.Rate), starts, s); err != nil {
		return nil, err
	}
	return &Indexed{C: c, starts: starts}, nil
}

// blockBits is the bits block b occupies when truncated to budget.
func (ix *Indexed) blockBits(b, budget int) int {
	stored := ix.starts[b+1] - ix.starts[b]
	if stored <= 1 {
		return stored // all-zero block: just the flag bit
	}
	pb := stored - blockHeaderBits
	if pb > budget {
		pb = budget
	}
	return blockHeaderBits + pb
}

// checkRate guards the derived-rate entry points. A NaN, negative, or
// out-of-range rate, or one above the rate the index was built at, is a
// caller configuration error — typed apierr.ErrBadConfig, never a silent
// mis-slice (a budget above the stored one would splice bits that were
// never written).
func (ix *Indexed) checkRate(rate float64) error {
	if err := (Options{Rate: rate}).Validate(); err != nil {
		return fmt.Errorf("zfp: %w: %w", apierr.ErrBadConfig, err)
	}
	if rate > ix.C.Rate {
		return fmt.Errorf("zfp: %w: index was built at rate %v, cannot derive rate %v", apierr.ErrBadConfig, ix.C.Rate, rate)
	}
	return nil
}

// PredictSize returns the exact compressed size in bytes (header included)
// of this field at the given rate, computed from the accounting table
// alone.
func (ix *Indexed) PredictSize(rate float64) (int, error) {
	if err := ix.checkRate(rate); err != nil {
		return 0, err
	}
	budget := budgetOf(rate)
	total := 0
	for b := 0; b < len(ix.starts)-1; b++ {
		total += ix.blockBits(b, budget)
	}
	return headerSize + (total+7)/8, nil
}

// DecompressAtRateInto reconstructs the field as it would decompress at the
// given (lower) rate, writing into out, which must have the compressed
// field's dimensions. No recompression happens: each block is decoded from
// its recorded offset with the smaller budget.
func (ix *Indexed) DecompressAtRateInto(out *grid.Field3D, rate float64, s *Scratch) error {
	if err := ix.checkRate(rate); err != nil {
		return err
	}
	c := ix.C
	if out.Nx != c.Nx || out.Ny != c.Ny || out.Nz != c.Nz {
		return fmt.Errorf("zfp: output field %s does not match %dx%dx%d", out, c.Nx, c.Ny, c.Nz)
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(ps)
		s = ps
	}
	l := layoutOf(c.Nx, c.Ny, c.Nz)
	n := l.blocks()
	streamBudget := budgetOf(c.Rate)
	budget := budgetOf(rate)
	if n < minParallelBlocks || parallel.Limit() == 0 {
		return decodeRange(out, l, streamBudget, budget, ix.starts, 0, n, &s.st, s.reader(c.payload))
	}
	return decodeChunked(out, c.payload, l, streamBudget, budget, ix.starts)
}

// DecompressAtRate is DecompressAtRateInto with a freshly allocated field.
func (ix *Indexed) DecompressAtRate(rate float64) (*grid.Field3D, error) {
	out := grid.NewField3D(ix.C.Nx, ix.C.Ny, ix.C.Nz)
	if err := ix.DecompressAtRateInto(out, rate, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// TruncateToRate assembles the compressed stream this field would have at
// the given (lower) rate by splicing each block's bit prefix out of the
// max-rate payload. The result is byte-identical to Compress at that rate
// (asserted by the differential suite).
func (ix *Indexed) TruncateToRate(rate float64, s *Scratch) (*Compressed, error) {
	if err := ix.checkRate(rate); err != nil {
		return nil, err
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(ps)
		s = ps
	}
	c := ix.C
	w := s.writer(len(c.payload))
	ix.spliceInto(w, budgetOf(rate))
	payload := append([]byte(nil), w.Bytes()...)
	return &Compressed{Nx: c.Nx, Ny: c.Ny, Nz: c.Nz, Rate: rate, payload: payload}, nil
}

// spliceInto appends every block's bit prefix at the budget to w.
func (ix *Indexed) spliceInto(w *huffman.BitWriter, budget int) {
	for b := 0; b < len(ix.starts)-1; b++ {
		w.AppendBitRange(ix.C.payload, ix.starts[b], ix.blockBits(b, budget))
	}
}

// Bytes serializes the compressed field.
func (c *Compressed) Bytes() []byte {
	return c.AppendBytes(make([]byte, 0, c.CompressedSize()))
}

// AppendBytes appends the serialized field to dst and returns the extended
// slice: the one serializer Bytes wraps.
func (c *Compressed) AppendBytes(dst []byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], 1)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(c.Nx))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(c.Ny))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(c.Nz))
	binary.LittleEndian.PutUint64(hdr[20:28], math.Float64bits(c.Rate))
	dst = append(dst, hdr[:]...)
	return append(dst, c.payload...)
}

// Parse deserializes a compressed field. Headers are hostile until proven
// otherwise: dimensions are bounded, the rate must be a valid fixed rate
// (rejecting NaN), and the implied block count is capped by the payload
// size (every block costs at least its zero flag bit), so a tiny input
// cannot claim a huge field and drive the decoder's preallocation.
func Parse(data []byte) (*Compressed, error) {
	if len(data) < headerSize {
		return nil, errors.New("zfp: stream shorter than header")
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("zfp: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != 1 {
		return nil, fmt.Errorf("zfp: unsupported version %d", v)
	}
	c := &Compressed{
		Nx:      int(binary.LittleEndian.Uint32(data[8:12])),
		Ny:      int(binary.LittleEndian.Uint32(data[12:16])),
		Nz:      int(binary.LittleEndian.Uint32(data[16:20])),
		Rate:    math.Float64frombits(binary.LittleEndian.Uint64(data[20:28])),
		payload: data[headerSize:],
	}
	if c.Nx <= 0 || c.Ny <= 0 || c.Nz <= 0 {
		return nil, errors.New("zfp: invalid dimensions")
	}
	if err := (Options{Rate: c.Rate}).Validate(); err != nil {
		return nil, err
	}
	l := layoutOf(c.Nx, c.Ny, c.Nz)
	if l.cbx > maxBlocksPerAxis || l.cby > maxBlocksPerAxis || l.cbz > maxBlocksPerAxis {
		return nil, fmt.Errorf("zfp: dimensions %dx%dx%d exceed the supported range", c.Nx, c.Ny, c.Nz)
	}
	if blocks := uint64(l.cbx) * uint64(l.cby) * uint64(l.cbz); blocks > uint64(len(c.payload))*8 {
		return nil, fmt.Errorf("zfp: %d-byte payload too short for %d blocks", len(c.payload), blocks)
	}
	return c, nil
}
