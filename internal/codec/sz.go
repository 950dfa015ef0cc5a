package codec

import (
	"math/bits"

	"repro/internal/stats"
	"repro/internal/sz"
)

// SZHeaderBits is the sz frame's fixed per-partition overhead in bits —
// the ratio-quality model's header term.
const SZHeaderBits = 8 * sz.HeaderBytes

// ScanResiduals runs the sz predictor's open-loop residual scan over a
// brick, filling out with the value moments and the prediction-error
// distribution the ratio-quality model consumes. Exposed here so the
// engine stays codec-agnostic.
func ScanResiduals(data []float32, nx, ny, nz int, out *stats.PredScan) error {
	return sz.ScanResiduals(data, nx, ny, nz, sz.Lorenzo3D, out)
}

// szCodec adapts internal/sz (prediction-based, error-bounded) to the
// Codec interface. It is the default backend: the only one whose frames
// carry a hard pointwise error guarantee, which the paper's error control
// requires (Sec. 2.2).
type szCodec struct{}

func (szCodec) ID() ID { return SZ }

func (szCodec) Compress(data []float32, nx, ny, nz int, opt Options, s *Scratch) (Frame, error) {
	if err := validateDims(data, nx, ny, nz); err != nil {
		return nil, err
	}
	zs := szScratch(s)
	if opt.Telemetry != nil && zs == nil {
		zs = &sz.Scratch{} // symbols must survive the call to be histogrammed
	}
	c, err := sz.CompressSliceWith(data, nx, ny, nz, szOptions(opt), zs)
	if err != nil {
		return nil, err
	}
	if opt.Telemetry != nil {
		fillQuantHist(opt.Telemetry, zs.Symbols(len(data)), sz.DefaultRadius)
	}
	return szFrame{c}, nil
}

// fillQuantHist condenses the quantization-symbol stream the prediction
// pass just produced into the compact octave histogram of
// Telemetry.QuantHist (symbol layout: 0 = outlier, else code + radius).
func fillQuantHist(t *Telemetry, symbols []int, radius int) {
	if cap(t.QuantHist) < QuantHistBins {
		t.QuantHist = make([]int64, QuantHistBins)
	}
	t.QuantHist = t.QuantHist[:QuantHistBins]
	clear(t.QuantHist)
	for _, sym := range symbols {
		switch q := sym - radius; {
		case sym == 0:
			t.QuantHist[QuantHistBins-1]++
		case q == 0:
			t.QuantHist[0]++
		default:
			if q < 0 {
				q = -q
			}
			k := bits.Len(uint(q)) // |q| ∈ [2^(k−1), 2^k)
			if k > QuantHistBins-2 {
				k = QuantHistBins - 2
			}
			t.QuantHist[k]++
		}
	}
}

func (szCodec) Parse(body []byte) (Frame, error) {
	c, err := sz.Parse(body)
	if err != nil {
		return nil, err
	}
	return szFrame{c}, nil
}

// szOptions maps the codec-agnostic knobs onto SZ's option set. The Mode
// enums are value-compatible by construction.
func szOptions(opt Options) sz.Options {
	return sz.Options{Mode: sz.Mode(opt.Mode), ErrorBound: opt.ErrorBound}
}

// szScratch lazily materializes the SZ working buffers inside the shared
// per-worker scratch. The sz.Scratch carries the whole per-partition hot
// path: prediction/quantization buffers, the outlier accumulator, RLE
// tokens, and the entropy stage's dense frequency/code tables (see
// huffman.Scratch), so steady-state compression is allocation-flat.
func szScratch(s *Scratch) *sz.Scratch {
	if s == nil {
		return nil
	}
	if s.sz == nil {
		s.sz = &sz.Scratch{}
	}
	return s.sz
}

type szFrame struct{ c *sz.Compressed }

func (f szFrame) CodecID() ID                    { return SZ }
func (f szFrame) Dims() (int, int, int)          { return f.c.Nx, f.c.Ny, f.c.Nz }
func (f szFrame) N() int                         { return f.c.N() }
func (f szFrame) CompressedSize() int            { return f.c.CompressedSize() }
func (f szFrame) BitRate() float64               { return f.c.BitRate() }
func (f szFrame) Ratio() float64                 { return f.c.Ratio() }
func (f szFrame) ErrorBound() float64            { return f.c.Opt.ErrorBound }
func (f szFrame) AppendBytes(dst []byte) []byte  { return f.c.AppendBytes(dst) }
func (f szFrame) Decompress() ([]float32, error) { return sz.DecompressSlice(f.c) }
