// Package sz implements a pure-Go prediction-based error-bounded lossy
// compressor in the style of SZ/cuSZ, the compressor the paper configures
// (Sec. 2.2). The pipeline is:
//
//  1. Quantize: snap each value to the 2·eb lattice first, as GPU-SZ/cuSZ
//     does. This yields the uniform U[−eb, +eb] error distribution the
//     paper's models build on.
//  2. Predict each lattice integer with a first-order 3-D Lorenzo
//     predictor on its causal neighbours' integers and code the
//     difference; a cell whose difference falls outside the quantization
//     radius, or whose fp32 lattice value would breach the bound, is stored
//     verbatim. Prediction reads integers, so no cell waits on its
//     neighbour's float reconstruction. CPU-SZ's formulation, predicting
//     from already reconstructed neighbours, remains for the MeanNeighbor
//     predictor and for decoding the flag-0 Lorenzo frames of older
//     archives; Sec. 3.2 of the paper shows the two behave identically.
//  3. Entropy coding: run-length tokens for runs of the "perfect
//     prediction" code followed by canonical Huffman coding. The RLE stage
//     is what lets bit rates drop below 1 bit/value at high error bounds,
//     mirroring SZ's lossless stage.
//
// The compressor guarantees max |x − x̂| ≤ eb in ABS mode and
// |x − x̂|/|x| ≤ eb in PW_REL mode (positive data), and the tests enforce
// both properties with property-based checks.
package sz

import (
	"errors"
	"fmt"
)

// Mode selects the error-bound semantics.
type Mode uint8

const (
	// ABS bounds the absolute pointwise error: |x − x̂| ≤ ErrorBound.
	ABS Mode = iota
	// PWREL bounds the pointwise relative error for strictly positive
	// data: |x − x̂| ≤ ErrorBound·|x|. Implemented via a log transform,
	// as in SZ.
	PWREL
)

func (m Mode) String() string {
	switch m {
	case ABS:
		return "ABS"
	case PWREL:
		return "PW_REL"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Predictor selects the prediction scheme (ablation knob; the paper's
// models assume Lorenzo).
type Predictor uint8

const (
	// Lorenzo3D is the first-order 3-D Lorenzo predictor used by SZ.
	Lorenzo3D Predictor = iota
	// MeanNeighbor predicts the average of the three causal axis
	// neighbours; kept for the predictor ablation bench.
	MeanNeighbor
)

func (p Predictor) String() string {
	switch p {
	case Lorenzo3D:
		return "lorenzo3d"
	case MeanNeighbor:
		return "mean-neighbor"
	default:
		return fmt.Sprintf("Predictor(%d)", uint8(p))
	}
}

// DefaultRadius is the quantization radius: residuals quantize into
// (−radius, +radius) bins; anything outside is stored verbatim as an
// outlier. 32768 matches SZ's default 65536-bin configuration.
const DefaultRadius = 32768

// Options configures a compression run.
type Options struct {
	Mode       Mode
	ErrorBound float64
	// Radius overrides DefaultRadius when > 0.
	Radius int
	// Predictor selects the prediction scheme (default Lorenzo3D).
	Predictor Predictor
}

func (o Options) radius() int {
	if o.Radius > 0 {
		return o.Radius
	}
	return DefaultRadius
}

// Validate checks the options for use on data of length n.
func (o Options) Validate() error {
	if o.ErrorBound <= 0 {
		return errors.New("sz: error bound must be positive")
	}
	if o.Mode != ABS && o.Mode != PWREL {
		return fmt.Errorf("sz: unknown mode %v", o.Mode)
	}
	if o.Mode == PWREL && o.ErrorBound >= 1 {
		return errors.New("sz: PW_REL error bound must be < 1")
	}
	if o.Predictor != Lorenzo3D && o.Predictor != MeanNeighbor {
		return fmt.Errorf("sz: unknown predictor %v", o.Predictor)
	}
	if o.Radius < 0 || o.Radius == 1 {
		return fmt.Errorf("sz: invalid radius %d", o.Radius)
	}
	return nil
}
