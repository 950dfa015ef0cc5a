package model

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// Ratio-quality model (Jin et al., "Improving Prediction-Based Lossy
// Compression Dramatically via Ratio-Quality Modeling", arXiv 2111.09815):
// instead of empirically compressing a partition at every candidate error
// bound, predict the bit rate analytically from one streaming scan of the
// prediction-error distribution. For a prediction-based compressor the
// stages are all statistically determined by that distribution:
//
//   - quantization: code q = round(r / 2eb), so the probability of each
//     code is the error-distribution mass of an interval proportional to
//     eb — recoverable for any eb from a log-spaced histogram;
//   - entropy coding: Huffman is within a constant of the code entropy;
//   - RLE: runs of the perfect-prediction code follow a geometric law in
//     the hit probability p₀(eb), and the binary-power run decomposition
//     emits popcount(run length) tokens.
//
// One validation compression anchors the curve (absorbing the Huffman
// table, header, and model bias), after which bit rate and quality are
// closed-form in eb. Transform codecs (zfp) get the bit-plane form
// instead: each extra bit per value halves the truncated-stream error, so
// rate is logarithmic in the bound and one anchor fixes the intercept.

// DefaultQuantRadius mirrors the sz compressor's default quantization
// radius without importing it (model stays compressor-agnostic).
const DefaultQuantRadius = 32768

// RQKind selects the model family for a codec class.
type RQKind uint8

const (
	// RQPrediction models prediction + quantization + RLE + Huffman
	// pipelines (sz): bit rate from the quantization-code entropy.
	RQPrediction RQKind = iota
	// RQTransform models truncated fixed-rate transform streams (zfp):
	// bit rate logarithmic in the error bound (one bit per halving).
	RQTransform
)

// RQModel predicts one partition's bit rate and quality for any candidate
// error bound from a single feature scan plus one anchoring compression.
type RQModel struct {
	Kind RQKind
	// Dist is the prediction-error magnitude distribution (RQPrediction).
	Dist *stats.ErrDist
	// N is the partition cell count.
	N int
	// Radius is the quantizer radius (0 selects DefaultQuantRadius).
	Radius int
	// ValueRange is max−min of the partition values (quality predictions,
	// and the transform model's rate scale).
	ValueRange float64
	// HeaderBits is the fixed per-partition stream overhead in bits.
	HeaderBits float64
	// AnchorEB/AnchorBits record the one validation compression the
	// calibration performs; they pin the predicted curve to an observed
	// (eb, bits/value) point.
	AnchorEB, AnchorBits float64

	// priors memoizes prior evaluations: calibration asks for the same
	// handful of grid bounds (and the anchor bound, once per BitRate call)
	// over and over, and a prediction-kind evaluation walks the full
	// quantization-octave and RLE-run decomposition each time.
	priors []priorPoint
}

type priorPoint struct{ eb, bits float64 }

// ErrNoScan is returned when a prediction model has no error distribution.
var ErrNoScan = errors.New("model: RQ model has no scanned error distribution")

// Validate checks the model is usable.
func (m *RQModel) Validate() error {
	if m == nil {
		return errors.New("model: nil RQ model")
	}
	if m.N <= 0 {
		return errors.New("model: RQ model has no cells")
	}
	if m.Kind == RQPrediction && (m.Dist == nil || m.Dist.Count() == 0) {
		return ErrNoScan
	}
	return nil
}

// Anchor records the observed bit rate of one validation compression at
// error bound eb, pinning the predicted curve through that point.
func (m *RQModel) Anchor(eb, bitsPerValue float64) {
	m.AnchorEB, m.AnchorBits = eb, bitsPerValue
}

// PriorBitRate is the scan-only (unanchored) bit-rate prediction in
// bits/value. It carries the curve's *shape*; the anchor fixes its level.
func (m *RQModel) PriorBitRate(eb float64) float64 {
	if m.Kind == RQTransform {
		return m.transformPrior(eb) // cheap; not worth memoizing
	}
	for _, p := range m.priors {
		if p.eb == eb {
			return p.bits
		}
	}
	bits := m.predictionPrior(eb)
	if len(m.priors) < 64 {
		m.priors = append(m.priors, priorPoint{eb, bits})
	}
	return bits
}

// BitRate is the anchored bit-rate prediction in bits/value. Before
// Anchor it falls back to the prior.
func (m *RQModel) BitRate(eb float64) float64 {
	prior := m.PriorBitRate(eb)
	if m.AnchorEB <= 0 || m.AnchorBits <= 0 {
		return prior
	}
	ref := m.PriorBitRate(m.AnchorEB)
	if m.Kind == RQTransform {
		// Logarithmic curve: anchor shifts the intercept.
		b := prior + (m.AnchorBits - ref)
		return clampRate(b)
	}
	if ref <= 0 {
		return prior
	}
	// Multiplicative correction preserves the entropy curve's shape while
	// absorbing the Huffman-vs-entropy gap and table overhead.
	return prior * (m.AnchorBits / ref)
}

// LogResidual is |ln(observed/predicted)| at one observed point — the
// quantity calibration checks against its guard band.
func (m *RQModel) LogResidual(eb, observedBits float64) float64 {
	pred := m.BitRate(eb)
	if pred <= 0 || observedBits <= 0 {
		return 0
	}
	return math.Abs(math.Log(observedBits / pred))
}

// PredictMaxError returns the pointwise error the codec will honor at this
// bound (the compressor guarantees ≤ eb; rate-searched transform codecs
// meet it best-effort).
func (m *RQModel) PredictMaxError(eb float64) float64 { return eb }

// PredictPSNR predicts the peak signal-to-noise ratio at a bound from the
// uniform U[−eb, +eb] quantization-error law (MSE = eb²/3) and the
// partition's value range — the quality half of the ratio-quality model.
func (m *RQModel) PredictPSNR(eb float64) float64 {
	if m.ValueRange <= 0 || eb <= 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(m.ValueRange) - 10*math.Log10(eb*eb/3)
}

// Curve synthesizes a calibration curve over an error-bound grid, ready
// for the existing Eq.-15 fit (model.Calibrate) — the model slots into the
// calibration pipeline exactly where measured probe curves used to go.
func (m *RQModel) Curve(feature float64, ebs []float64) Curve {
	rates := make([]float64, len(ebs))
	for i, eb := range ebs {
		rates[i] = m.BitRate(eb)
	}
	return Curve{Feature: feature, EBs: append([]float64(nil), ebs...), BitRates: rates}
}

// transformPrior: a truncated zfp stream loses about one binary digit of
// accuracy per dropped bit/value, so the cheapest rate meeting a bound eb
// on data spanning ValueRange is ≈ log₂(range/eb), clamped to the codec's
// rate window.
func (m *RQModel) transformPrior(eb float64) float64 {
	if eb <= 0 {
		return 32
	}
	if m.ValueRange <= 0 {
		return clampRate(0)
	}
	return clampRate(math.Log2(m.ValueRange / eb))
}

func clampRate(r float64) float64 {
	if r < 1e-3 {
		return 1e-3
	}
	if r > 32 {
		return 32
	}
	return r
}

// predictionPrior evaluates the closed-form entropy model at one bound.
func (m *RQModel) predictionPrior(eb float64) float64 {
	if eb <= 0 {
		return math.Inf(1)
	}
	n := float64(m.N)
	if n <= 0 || m.Dist == nil || m.Dist.Count() == 0 {
		return 0
	}
	total := float64(m.Dist.Count())
	radius := m.Radius
	if radius <= 0 {
		radius = DefaultQuantRadius
	}

	// Token categories of the post-RLE stream: each category holds an
	// expected per-value token count spread over u equiprobable codes.
	type category struct{ count, u float64 }
	cats := make([]category, 0, 32)

	// Quantization: code |q| = j covers residual magnitude
	// ((2j−1)·eb, (2j+1)·eb]; octave groups of codes share the histogram's
	// log-spaced resolution.
	tail := m.Dist.TailCount(eb) // mass with |q| ≥ 1
	p0 := 1 - tail/total
	if p0 < 0 {
		p0 = 0
	}
	prev := tail
	for k := 0; 1<<k < radius; k++ {
		qLo, qHi := 1<<k, 2<<k
		if qHi > radius {
			qHi = radius
		}
		upper := m.Dist.TailCount((2*float64(qHi) - 1) * eb)
		if mass := (prev - upper) / total; mass > 0 {
			cats = append(cats, category{mass, 2 * float64(qHi-qLo)})
		}
		prev = upper
	}
	// Codes beyond the radius are outliers: one marker token plus a
	// verbatim fp32 value.
	pOut := prev / total
	if pOut > 0 {
		cats = append(cats, category{pOut, 1})
	}

	// RLE over perfect-prediction hits: for i.i.d. hits with probability
	// p₀, maximal runs start at density p₀(1−p₀) and have geometric
	// lengths, P(L=ℓ) = (1−p₀)·p₀^(ℓ−1). A length-1 run emits the plain
	// hit symbol; length ℓ ≥ 2 decomposes into binary powers, one token
	// per set bit of ℓ. The bit-b token mass has a closed form: lengths
	// with bit b set are ℓ = j·2^(b+1) + 2^b + i (i < 2^b, j ≥ 0), two
	// nested geometric sums, so
	//
	//   Σ_{bit b set} p₀^(ℓ−1) = p₀^(2^b−1)·(1−p₀^(2^b)) /
	//                            ((1−p₀)·(1−p₀^(2^(b+1))))
	//
	// evaluated via expm1 so p₀ → 1 stays finite.
	if p0 > 0 && p0 < 1 {
		miss := 1 - p0
		runs := p0 * miss
		if c := runs * miss; c > 0 { // P(L=1) = miss
			cats = append(cats, category{c, 1})
		}
		lm := math.Log(p0)
		for b := 0; b < 63; b++ {
			w := math.Exp(float64(int64(1)<<b-1) * lm) // p₀^(2^b−1)
			if w*runs < 1e-14 {
				break
			}
			num := -math.Expm1(float64(int64(1)<<b) * lm)      // 1−p₀^(2^b)
			den := miss * -math.Expm1(float64(int64(2)<<b)*lm) // (1−p₀)(1−p₀^(2^(b+1)))
			if den <= 0 {
				break
			}
			s := w * num / den // Σ p₀^(ℓ−1) over lengths with bit b set
			mass := miss * s   // Σ P(L=ℓ) over those lengths
			if b == 0 {
				mass -= miss // exclude ℓ=1: emitted as the plain hit above
			}
			if mass > 0 {
				cats = append(cats, category{runs * mass, 1})
			}
		}
	}

	var tokens float64
	for _, c := range cats {
		tokens += c.count
	}
	bits := m.HeaderBits/n + 32*pOut
	if tokens > 0 {
		for _, c := range cats {
			bits += c.count * math.Log2(tokens*c.u/c.count)
		}
	}
	if bits <= 0 || math.IsNaN(bits) {
		bits = m.HeaderBits / n
	}
	return bits
}
