package codec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/zfp"
)

// zfpCodec adapts internal/zfp (transform-based, fixed-rate) to the Codec
// interface. Two behaviours:
//
//   - Options.Rate > 0: plain fixed-rate compression, ZFP's native mode.
//   - Options.Rate == 0, ErrorBound > 0: zfp.CompressBounded picks a rate
//     that verifiably meets the bound on every cell. This is what lets a
//     fixed-rate codec consume the configurator's per-partition error-bound
//     plans — the bound is best effort: if even the maximum rate misses it,
//     the max-rate frame is returned with ErrorBound 0, which is precisely
//     the failure mode the paper cites for rejecting fixed-rate codecs
//     (Sec. 2.2).
type zfpCodec struct{}

func (zfpCodec) ID() ID { return ZFP }

func (z zfpCodec) Compress(data []float32, nx, ny, nz int, opt Options, s *Scratch) (Frame, error) {
	return z.CompressCtx(context.Background(), data, nx, ny, nz, opt, s)
}

// CompressCtx is Compress with mid-compression cancellation: the rate
// search checks ctx before every candidate rate it evaluates (see
// codec.CompressCtx).
func (zfpCodec) CompressCtx(ctx context.Context, data []float32, nx, ny, nz int, opt Options, s *Scratch) (Frame, error) {
	if err := validateDims(data, nx, ny, nz); err != nil {
		return nil, err
	}
	f := &grid.Field3D{Nx: nx, Ny: ny, Nz: nz, Data: data}
	if opt.Rate > 0 {
		c, err := zfp.CompressWith(f, zfp.Options{Rate: opt.Rate}, zfpScratch(s))
		if err != nil {
			return nil, err
		}
		return zfpFrame{c: c}, nil
	}
	if !(opt.ErrorBound > 0) { // NaN-safe
		return nil, errors.New("codec: zfp needs Options.Rate or Options.ErrorBound")
	}
	if opt.Mode != ABS {
		return nil, errors.New("codec: zfp rate search supports ABS error bounds only")
	}
	c, st, err := zfp.CompressBounded(ctx, f, opt.ErrorBound, zfpScratch(s))
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if opt.Telemetry != nil {
		opt.Telemetry.Probes = st.Rounds
		opt.Telemetry.BlockDecodes = st.BlockDecodes
		opt.Telemetry.ChosenRate = c.Rate
	}
	fr := zfpFrame{c: c}
	if st.Met {
		fr.eb = opt.ErrorBound
	}
	return fr, nil
}

// zfpScratch lazily materializes the ZFP working buffers inside the shared
// per-worker scratch, mirroring szScratch.
func zfpScratch(s *Scratch) *zfp.Scratch {
	if s == nil {
		return nil
	}
	if s.zfp == nil {
		s.zfp = &zfp.Scratch{}
	}
	return s.zfp
}

func (zfpCodec) Parse(body []byte) (Frame, error) {
	c, err := zfp.Parse(body)
	if err != nil {
		return nil, err
	}
	return zfpFrame{c: c}, nil
}

// WrapZFP wraps an already-compressed fixed-rate stream as a Frame — the
// constructor an archive writer uses after compressing partitions itself
// with zfp.CompressIndexed (to keep the bit accounting) rather than
// through the codec adapter. The frame reports ErrorBound 0: fixed-rate
// streams carry no bound guarantee.
func WrapZFP(c *zfp.Compressed) Frame { return zfpFrame{c: c} }

// zfpFrame wraps a fixed-rate stream. eb is the bound the rate search
// verified, kept in memory only: ZFP's native serialization has no bound
// field, so parsed frames report ErrorBound 0 (no guarantee recorded).
type zfpFrame struct {
	c  *zfp.Compressed
	eb float64
}

func (f zfpFrame) CodecID() ID                   { return ZFP }
func (f zfpFrame) Dims() (int, int, int)         { return f.c.Nx, f.c.Ny, f.c.Nz }
func (f zfpFrame) N() int                        { return f.c.N() }
func (f zfpFrame) CompressedSize() int           { return f.c.CompressedSize() }
func (f zfpFrame) BitRate() float64              { return f.c.BitRate() }
func (f zfpFrame) Ratio() float64                { return f.c.Ratio() }
func (f zfpFrame) ErrorBound() float64           { return f.eb }
func (f zfpFrame) AppendBytes(dst []byte) []byte { return f.c.AppendBytes(dst) }

func (f zfpFrame) Decompress() ([]float32, error) {
	g, err := zfp.Decompress(f.c)
	if err != nil {
		return nil, err
	}
	return g.Data, nil
}
