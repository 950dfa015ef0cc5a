package adaptive

import (
	"fmt"
	"math"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/pipeline"

	"repro/adaptive/codecs"
)

// config is the resolved option set behind New and NewExperimentContext.
// It unifies what used to be three divergent configuration structs (engine,
// streaming pipeline, experiment workload) behind one option list; options
// resolve once at construction, so the hot paths never consult them.
type config struct {
	engine core.Config
	pipe   pipeline.Options
	cal    core.CalibrationOptions

	// Synthetic-workload knobs, consumed by NewExperimentContext only.
	gridN    int
	seed     uint64
	redshift float64

	// notForExperiments records options an experiment context cannot
	// express; NewExperimentContext rejects them instead of silently
	// running a different configuration than the caller asked for.
	notForExperiments []string
}

// engineOnly marks an option as meaningless to NewExperimentContext.
func (c *config) engineOnly(name string) { c.notForExperiments = append(c.notForExperiments, name) }

// Option configures New and NewExperimentContext. Options validate
// eagerly where they can; anything they let through is validated by the
// layer that consumes it, and every rejection wraps ErrBadConfig (or
// ErrCodecUnknown for an unregistered backend).
type Option func(*config) error

// WithCodec selects the compression backend by registry name ("sz" by
// default; "zfp" ships too, and adaptive/codecs registers more). An
// unknown name surfaces from New as ErrCodecUnknown.
func WithCodec(name string) Option {
	return func(c *config) error {
		c.engine.Codec = codec.ID(name)
		return nil
	}
}

// WithPartitionDim sets the cubic partition brick edge (default 16).
// Field dimensions must be divisible by it.
func WithPartitionDim(d int) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("adaptive: %w: partition dim %d must be positive", apierr.ErrBadConfig, d)
		}
		c.engine.PartitionDim = d
		return nil
	}
}

// WithWorkers bounds the engine's partition-level parallelism
// (default: GOMAXPROCS; all levels share one bounded worker pool).
func WithWorkers(n int) Option {
	return func(c *config) error {
		c.engine.Workers = n
		return nil
	}
}

// WithMode sets the error-bound semantics for error-bounded codecs
// (default codecs.ABS, the paper's requirement).
func WithMode(m codecs.Mode) Option {
	return func(c *config) error {
		c.engine.Mode = m
		c.engineOnly("WithMode")
		return nil
	}
}

// WithClampFactor sets the optimizer's error-bound box k: each planned
// bound is clamped to [avg/k, k·avg] (default 4, the paper's choice).
func WithClampFactor(k float64) Option {
	return func(c *config) error {
		if !(k >= 1) { // NaN-safe
			return fmt.Errorf("adaptive: %w: clamp factor %g must be ≥ 1", apierr.ErrBadConfig, k)
		}
		c.engine.ClampFactor = k
		c.engineOnly("WithClampFactor")
		return nil
	}
}

// WithStrategy selects the error-bound allocation strategy
// (default EqualDerivative).
func WithStrategy(s Strategy) Option {
	return func(c *config) error {
		c.engine.Strategy = s
		c.engineOnly("WithStrategy")
		return nil
	}
}

// WithCalibration tunes calibration sampling for System.Calibrate and
// every (re)calibration the streaming pipeline performs.
func WithCalibration(o CalibrationOptions) Option {
	return func(c *config) error {
		c.cal = o
		c.engineOnly("WithCalibration")
		return nil
	}
}

// WithModelGuardBand sets the streaming pipeline's bound on the rate
// model's smoothed prediction residual: within it, drift events are
// absorbed by O(1) model corrections; beyond it, the next drift event
// forces a full recalibration (default 0.25; negative disables
// corrections entirely).
func WithModelGuardBand(gb float64) Option {
	return func(c *config) error {
		if gb == 0 || math.IsNaN(gb) {
			return fmt.Errorf("adaptive: %w: model guard band %g must be positive (or negative to disable)", apierr.ErrBadConfig, gb)
		}
		c.pipe.ModelGuardBand = gb
		c.engineOnly("WithModelGuardBand")
		return nil
	}
}

// WithPolicy selects the streaming recalibration schedule
// (default DriftTriggered).
func WithPolicy(p Policy) Option {
	return func(c *config) error {
		c.pipe.Policy = p
		c.engineOnly("WithPolicy")
		return nil
	}
}

// WithDriftThreshold sets the relative drift of the global mean feature
// that triggers recalibration under DriftTriggered (default 0.25).
func WithDriftThreshold(t float64) Option {
	return func(c *config) error {
		if !(t >= 0) { // NaN-safe
			return fmt.Errorf("adaptive: %w: drift threshold %g must be ≥ 0", apierr.ErrBadConfig, t)
		}
		c.pipe.DriftThreshold = t
		c.engineOnly("WithDriftThreshold")
		return nil
	}
}

// WithRelAvgEB sets each streamed field's quality budget relative to its
// global mean |value| at first calibration (default 0.1).
func WithRelAvgEB(r float64) Option {
	return func(c *config) error {
		if !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("adaptive: %w: relative budget %g must be positive and finite", apierr.ErrBadConfig, r)
		}
		c.pipe.RelAvgEB = r
		c.engineOnly("WithRelAvgEB")
		return nil
	}
}

// WithFieldBudget overrides the streaming budget with an absolute average
// error bound for one named field; repeat for several fields.
func WithFieldBudget(field string, avgEB float64) Option {
	return func(c *config) error {
		if !(avgEB > 0) || math.IsInf(avgEB, 1) {
			return fmt.Errorf("adaptive: %w: budget %g for field %q must be positive and finite", apierr.ErrBadConfig, avgEB, field)
		}
		if c.pipe.AvgEBs == nil {
			c.pipe.AvgEBs = make(map[string]float64)
		}
		c.pipe.AvgEBs[field] = avgEB
		c.engineOnly("WithFieldBudget")
		return nil
	}
}

// WithFieldWorkers bounds how many fields a streaming step compresses
// concurrently (default: min(#fields, GOMAXPROCS)).
func WithFieldWorkers(n int) Option {
	return func(c *config) error {
		c.pipe.FieldWorkers = n
		c.engineOnly("WithFieldWorkers")
		return nil
	}
}

// WithStreamWriter lands every streamed step in an archive v3 stream. The
// system never closes the writer: the caller owns the footer, which is
// what makes a canceled run recoverable (Close, then OpenStream).
func WithStreamWriter(w *StreamWriter) Option {
	return func(c *config) error {
		c.pipe.Writer = w
		c.engineOnly("WithStreamWriter")
		return nil
	}
}

// WithOnStep observes each streamed step's stats as the run progresses.
func WithOnStep(fn func(*StepStats)) Option {
	return func(c *config) error {
		c.pipe.OnStep = fn
		c.engineOnly("WithOnStep")
		return nil
	}
}

// WithGridN sets the synthetic grid dimension for experiment contexts
// (default 128). It has no effect on New.
func WithGridN(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("adaptive: %w: grid dimension %d must be positive", apierr.ErrBadConfig, n)
		}
		c.gridN = n
		return nil
	}
}

// WithSeed fixes the synthetic universe for experiment contexts
// (default 7). It has no effect on New.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithRedshift sets the default snapshot epoch for experiment contexts
// (default 42). It has no effect on New.
func WithRedshift(z float64) Option {
	return func(c *config) error {
		c.redshift = z
		return nil
	}
}
