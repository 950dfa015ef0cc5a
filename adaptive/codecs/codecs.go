// Package codecs is the backend-registration surface of the adaptive
// facade: the codec-level interface the engine drives its compressors
// through, and the registry new backends plug into.
//
// Two backends ship pre-registered: "sz" (the prediction-based
// error-bounded compressor the paper configures) and "zfp" (the
// transform-based fixed-rate comparison codec). A program embedding its
// own compressor implements Codec and registers it:
//
//	codecs.Register(myCodec{})                     // before adaptive.New
//	sys, _ := adaptive.New(adaptive.WithCodec("mine"))
//
// Frames are self-describing (codec ID + version in every envelope), so
// archives produced through a registered backend decode anywhere the same
// backend is registered — and fail with adaptive.ErrCodecUnknown anywhere
// it is not.
package codecs

import "repro/internal/codec"

// ID names a codec in the registry and in frame headers.
type ID = codec.ID

const (
	// SZ is the prediction-based error-bounded compressor (default).
	SZ ID = codec.SZ
	// ZFP is the transform-based fixed-rate comparison codec.
	ZFP ID = codec.ZFP
)

// Mode selects error-bound semantics for error-bounded codecs.
type Mode = codec.Mode

const (
	// ABS bounds the absolute pointwise error: |x − x̂| ≤ ErrorBound.
	ABS Mode = codec.ABS
	// PWREL bounds the pointwise relative error (positive data only).
	PWREL Mode = codec.PWREL
)

// Options are the codec-agnostic knobs of one compression call; each
// backend consumes the subset it understands.
type Options = codec.Options

// Frame is one compressed 3-D brick, tagged with the codec that produced
// it; frames decode themselves.
type Frame = codec.Frame

// Scratch holds per-worker reusable compression state; the zero value is
// ready to use, nil is always accepted.
type Scratch = codec.Scratch

// Codec is one compression backend. Implementations must be safe for
// concurrent use.
type Codec = codec.Codec

// Register adds a backend to the registry the engine and archives resolve
// codecs from. Registering a nil codec, an empty or over-long ID, or a
// duplicate ID is an error.
func Register(c Codec) error { return codec.Register(c) }

// Lookup resolves an ID to its backend; unknown IDs wrap
// adaptive.ErrCodecUnknown.
func Lookup(id ID) (Codec, error) { return codec.Lookup(id) }

// IDs returns the registered codec IDs in sorted order.
func IDs() []ID { return codec.IDs() }

// EncodeFrame serializes a frame with its self-describing codec header.
func EncodeFrame(f Frame) []byte { return codec.EncodeFrame(f) }

// DecodeFrame reverses EncodeFrame, resolving the named backend in the
// registry and handing it the codec-native body.
func DecodeFrame(data []byte) (Frame, error) { return codec.DecodeFrame(data) }
