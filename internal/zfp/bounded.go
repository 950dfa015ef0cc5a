package zfp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/parallel"
)

// rateGrid is the candidate rates of CompressBounded: 0.5…4 in steps of
// 0.25, 4…8 of 0.5, 8…16 of 1, 16…32 of 2. Archived frames were chosen from
// this set, so it is part of the format's behaviour.
var rateGrid = []float64{
	0.5, 0.75, 1, 1.25, 1.5, 1.75, 2, 2.25, 2.5, 2.75, 3, 3.25, 3.5, 3.75, 4,
	4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	18, 20, 22, 24, 26, 28, 30, 32,
}

// BoundedStats is the work one CompressBounded call did.
type BoundedStats struct {
	// Met is false when even the maximum rate misses the bound: the stream
	// returned is then the max-rate one and carries no guarantee.
	Met bool
	// Rounds counts the candidate-rate evaluations, BlockDecodes the
	// truncated block decodes they cost in total.
	Rounds, BlockDecodes int
}

// CompressBounded compresses f at a fixed rate from rateGrid whose
// reconstruction is within eb of f on every cell, best effort (see
// BoundedStats.Met). The field is compressed once at the maximum rate; every
// candidate is judged on block prefixes of that one stream (Indexed) and the
// chosen stream is spliced out of it, byte-identical to Compress at that rate.
//
// Truncated error is not monotone in rate — on cosmology partitions under
// planned bounds a block passes at one rate and fails at the next for about
// one partition in a hundred — so "the cheapest passing rate" needs a
// definition that no probe order can change. The pivot is the block storing
// the most bits at the maximum rate (lowest index on ties); g₀ is a rate the
// pivot meets the bound at while failing the one below, found by binary
// search on that block alone; the result is the lowest rate from g₀ up that
// every block passes. It is a pure function of (f, eb): verified on every
// block, with a block on record failing the rate below, whatever the worker
// count or scratch. Each round tries the block that failed last first, so a
// failing rate costs about one block decode and the whole search about one
// verification pass. ctx is checked once per round.
func CompressBounded(ctx context.Context, f *grid.Field3D, eb float64, s *Scratch) (*Compressed, BoundedStats, error) {
	var stats BoundedStats
	if f == nil || f.Len() == 0 {
		return nil, stats, errors.New("zfp: empty field")
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(ps)
		s = ps
	}
	maxRate := rateGrid[len(rateGrid)-1]
	n := layoutOf(f.Nx, f.Ny, f.Nz).blocks()
	starts := s.startsBuf(n + 1)
	// The max-rate stream is transient: until the end c borrows it from
	// s's writer, and only the chosen prefix of it is copied out.
	c := &Compressed{Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, Rate: maxRate, payload: encode(f, maxRate, starts, s)}
	ix := &Indexed{C: c, starts: starts}
	pivot := 0
	for b := 1; b < n; b++ {
		if starts[b+1]-starts[b] > starts[pivot+1]-starts[pivot] {
			pivot = b
		}
	}
	round := func(g, first int, all bool) (int, error) {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("zfp: rate search: %w", err)
		}
		stats.Rounds++
		return ix.firstFailing(f, budgetOf(rateGrid[g]), eb, first, all, s, &stats.BlockDecodes)
	}
	lo, hi := -1, len(rateGrid) // the pivot fails grid[lo] and passes grid[hi], where those exist
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		fail, err := round(mid, pivot, false)
		if err != nil {
			return nil, stats, err
		}
		if fail < 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	for g, first := hi, pivot; g < len(rateGrid); g++ {
		fail, err := round(g, first, true)
		if err != nil {
			return nil, stats, err
		}
		if fail >= 0 {
			first = fail
			continue
		}
		size, err := ix.PredictSize(rateGrid[g])
		if err != nil {
			return nil, stats, err
		}
		w := huffman.NewBitWriter(size - headerSize)
		ix.spliceInto(w, budgetOf(rateGrid[g]))
		stats.Met = true
		c.Rate, c.payload = rateGrid[g], w.Bytes()
		return c, stats, nil
	}
	c.payload = append([]byte(nil), c.payload...) // the caller must own its bytes
	return c, stats, nil
}

// firstFailing evaluates one candidate budget against an error bound: it
// returns a block whose reconstruction from its first budget bits puts a
// cell more than eb from f's, or −1 when every block is within it. Block
// first is tried before the others; with all false it is the only one tried.
// Fields of minParallelBlocks blocks or more fan the rest out in chunks —
// which failing block is reported may then vary, whether one exists cannot.
// decodes is advanced by the blocks decoded.
func (ix *Indexed) firstFailing(f *grid.Field3D, budget int, eb float64, first int, all bool, s *Scratch, decodes *int) (int, error) {
	l := layoutOf(ix.C.Nx, ix.C.Ny, ix.C.Nz)
	n := l.blocks()
	r := s.reader(ix.C.payload)
	*decodes++
	if ok, err := ix.blockMeets(f, l, first, budget, eb, &s.st, r); err != nil || !ok {
		return first, err
	}
	if !all {
		return -1, nil
	}
	if n < minParallelBlocks || parallel.Limit() == 0 {
		for b := 0; b < n; b++ {
			if b == first {
				continue
			}
			*decodes++
			if ok, err := ix.blockMeets(f, l, b, budget, eb, &s.st, r); err != nil || !ok {
				return b, err
			}
		}
		return -1, nil
	}
	var failed, decoded atomic.Int64
	var firstErr atomic.Pointer[error]
	failed.Store(-1)
	parallel.Workers((n+chunkBlocks-1)/chunkBlocks, 0, func(next func() (int, bool)) {
		cw := workerPool.Get().(*chunkWorker)
		defer workerPool.Put(cw)
		cw.r.Reset(ix.C.payload)
		done := 0
		for c, ok := next(); ok; c, ok = next() {
			for b := c * chunkBlocks; b < min((c+1)*chunkBlocks, n) && failed.Load() < 0; b++ {
				if b == first {
					continue
				}
				done++
				ok, err := ix.blockMeets(f, l, b, budget, eb, &cw.st, cw.r)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
				if err != nil || !ok {
					failed.CompareAndSwap(-1, int64(b))
				}
			}
		}
		decoded.Add(int64(done))
	})
	*decodes += int(decoded.Load())
	if err := firstErr.Load(); err != nil {
		return int(failed.Load()), *err
	}
	return int(failed.Load()), nil
}

// blockMeets is the fused per-block predicate: decode block b from its
// recorded offset at the budget and compare its in-range cells — rounded
// through float32 exactly as scatterBlock stores them — with f's, stopping
// at the first one over the bound. No field is reconstructed. A NaN
// difference passes, as it does in a whole-field max-abs error.
func (ix *Indexed) blockMeets(f *grid.Field3D, l layout, b, budget int, eb float64, st *blockState, r *huffman.BitReader) (bool, error) {
	x0, y0, z0 := l.origin(b)
	if err := r.SeekBit(ix.starts[b]); err != nil {
		return false, err
	}
	if err := st.decodeBlock(r, budget); err != nil {
		return false, fmt.Errorf("zfp: block (%d,%d,%d): %w", x0, y0, z0, err)
	}
	for dz := 0; dz < blockDim && z0+dz < f.Nz; dz++ {
		for dy := 0; dy < blockDim && y0+dy < f.Ny; dy++ {
			row := f.Data[f.Index(x0, y0+dy, z0+dz):]
			for dx := 0; dx < blockDim && x0+dx < f.Nx; dx++ {
				rec := float32(st.vals[(dz*blockDim+dy)*blockDim+dx])
				if math.Abs(float64(row[dx])-float64(rec)) > eb {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
