// Package codec is the pluggable compression layer between the adaptive
// configurator (internal/core) and the concrete compressors (internal/sz,
// internal/zfp). The paper's fine-grained rate-quality model is
// compressor-agnostic: it assigns each partition an error bound, and any
// error-bounded codec can consume that assignment. This package makes that
// property concrete — the engine talks to a Codec interface, backends are
// resolved by name through a Registry, and every compressed frame carries a
// self-describing header (codec ID + version) so archives decode without
// out-of-band knowledge of which backend produced them.
//
// Two backends ship in the default registry:
//
//   - "sz": the prediction-based error-bounded compressor the paper
//     configures (honors Options.ErrorBound exactly);
//   - "zfp": the transform-based fixed-rate codec the paper compares
//     against (honors Options.Rate exactly; when only an error bound is
//     given the adapter searches for the cheapest rate that meets it).
package codec

import (
	"context"
	"fmt"

	"repro/internal/apierr"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// ID names a codec in the registry and in frame headers. IDs are short
// ASCII strings ("sz", "zfp") so frames stay self-describing and diffable.
type ID string

const (
	// SZ is the prediction-based error-bounded compressor (internal/sz).
	SZ ID = "sz"
	// ZFP is the transform-based fixed-rate codec (internal/zfp).
	ZFP ID = "zfp"
)

// Mode selects error-bound semantics for error-bounded codecs.
type Mode uint8

const (
	// ABS bounds the absolute pointwise error: |x − x̂| ≤ ErrorBound.
	ABS Mode = iota
	// PWREL bounds the pointwise relative error (strictly positive data).
	PWREL
)

func (m Mode) String() string {
	switch m {
	case ABS:
		return "abs"
	case PWREL:
		return "pwrel"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Predictor selects the prediction scheme of prediction-based codecs.
type Predictor uint8

const (
	// Lorenzo3D is the first-order 3-D Lorenzo predictor used by SZ.
	Lorenzo3D Predictor = iota
	// MeanNeighbor predicts the average of the three causal neighbours.
	MeanNeighbor
)

func (p Predictor) String() string { return sz.Predictor(p).String() }

// Options are the codec-agnostic knobs of one compression call. Each codec
// consumes the subset it understands and ignores the rest, so the engine
// can hand the same options to any registered backend.
type Options struct {
	// Mode is the error-bound semantics (error-bounded codecs).
	Mode Mode
	// ErrorBound is the pointwise bound the frame should honor. SZ
	// guarantees it; ZFP treats it as a target and searches for the
	// cheapest rate that meets it (best effort, see the zfp adapter).
	ErrorBound float64
	// Rate is the fixed bit budget per value (fixed-rate codecs). When
	// > 0 it overrides ErrorBound-driven rate selection for ZFP.
	Rate float64
	// Predictor selects the prediction scheme (prediction-based codecs).
	Predictor Predictor
	// Radius overrides the quantization radius when > 0 (SZ).
	Radius int
	// Telemetry, when non-nil, is filled by the codec with introspection
	// from the compression it performs (quantization histogram, rate-search
	// probe counts). It adds one cheap pass at most; leave nil on paths
	// that don't consume it.
	Telemetry *Telemetry
}

// Telemetry is per-compression introspection surfaced through
// Options.Telemetry. Codecs fill the subset they understand.
type Telemetry struct {
	// QuantHist is the quantization-symbol histogram of prediction-based
	// codecs, from the prediction pass compression already ran — the free
	// feature scan of the ratio-quality model. Layout: index 0 counts
	// exact hits (code 0); index k ∈ [1, 16] counts codes with
	// |q| ∈ [2^(k−1), 2^k); the final index counts outliers.
	QuantHist []int64
	// Probes counts the candidate rates a rate search evaluated, and
	// BlockDecodes the truncated block decodes that took (a whole-field
	// verification is one per block).
	Probes, BlockDecodes int
	// ChosenRate is the bit rate the search settled on (bits/value).
	ChosenRate float64
}

// QuantHistBins is the length of Telemetry.QuantHist: hits, 16 magnitude
// octaves, outliers.
const QuantHistBins = 18

// Frame is one compressed 3-D brick, tagged with the codec that produced
// it. Frames decode themselves, so mixed-codec archives need no external
// bookkeeping beyond the registry that parsed them.
type Frame interface {
	// CodecID identifies the producing codec.
	CodecID() ID
	// Dims returns the brick dimensions (x-fastest layout).
	Dims() (nx, ny, nz int)
	// N returns the number of cells.
	N() int
	// CompressedSize returns the payload size in bytes including the
	// codec-native header (the figure used for compression ratios).
	CompressedSize() int
	// BitRate returns bits per value (raw fp32 is 32).
	BitRate() float64
	// Ratio returns the compression ratio relative to fp32 storage.
	Ratio() float64
	// ErrorBound returns the pointwise bound this frame honors, or 0 when
	// the codec gives no bound (fixed-rate frames, parsed ZFP frames).
	ErrorBound() float64
	// Bytes serializes the frame in the codec's native format (without
	// the codec envelope; see EncodeFrame for the self-describing form).
	Bytes() []byte
	// Decompress reconstructs the flat brick values.
	Decompress() ([]float32, error)
}

// Scratch holds per-worker reusable state for the hot compression path.
// The engine pools one Scratch per worker (sync.Pool) so that compressing
// thousands of partitions allocates O(1) transient memory instead of O(n)
// per partition. A Scratch must not be used concurrently; the zero value
// is ready to use.
type Scratch struct {
	// Brick is the partition-extraction buffer owned by the engine.
	Brick []float32
	// sz holds the SZ compressor's working buffers, lazily allocated by
	// the SZ adapter on first use.
	sz *sz.Scratch
	// zfp holds the ZFP compressor's working buffers (block state, stream
	// cursors, chunk bookkeeping), lazily allocated by the ZFP adapter.
	zfp *zfp.Scratch
}

// Codec is one compression backend. Implementations must be safe for
// concurrent use (each call gets its own Scratch).
type Codec interface {
	// ID returns the registry name of the codec.
	ID() ID
	// Compress compresses a flat x-fastest brick of dimensions nx×ny×nz.
	// The input and scratch (which may be nil) are only retained during
	// the call.
	Compress(data []float32, nx, ny, nz int, opt Options, s *Scratch) (Frame, error)
	// Parse deserializes a frame previously produced by Frame.Bytes.
	Parse(body []byte) (Frame, error)
}

// CompressCtx compresses through c, forwarding ctx to codecs that support
// mid-compression cancellation (the zfp rate search checks it between
// candidate rates); other codecs fall back to plain Compress,
// whose callers already check ctx between partitions.
func CompressCtx(ctx context.Context, c Codec, data []float32, nx, ny, nz int, opt Options, s *Scratch) (Frame, error) {
	type ctxCompressor interface {
		CompressCtx(ctx context.Context, data []float32, nx, ny, nz int, opt Options, s *Scratch) (Frame, error)
	}
	if cc, ok := c.(ctxCompressor); ok {
		return cc.CompressCtx(ctx, data, nx, ny, nz, opt, s)
	}
	return c.Compress(data, nx, ny, nz, opt, s)
}

// ErrUnknownCodec is wrapped by registry lookups and frame decodes that
// name a codec no backend is registered for. It is the same value the
// public facade exports as adaptive.ErrCodecUnknown, so errors.Is matches
// against either name from any layer.
var ErrUnknownCodec = apierr.ErrCodecUnknown

// validateDims rejects inconsistent brick geometry before it reaches a
// backend (shared by the adapters).
func validateDims(data []float32, nx, ny, nz int) error {
	if len(data) != nx*ny*nz || len(data) == 0 {
		return fmt.Errorf("codec: data length %d != %d×%d×%d", len(data), nx, ny, nz)
	}
	return nil
}
