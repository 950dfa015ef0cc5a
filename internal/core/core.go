// Package core is the public face of the reproduction: the adaptive
// configurator that ties feature extraction, rate-quality modeling,
// error-bound optimization, and compression into the workflow the paper
// deploys in situ (Sec. 3.6, Fig. 2).
//
// Typical use (external programs should go through the public facade in
// package adaptive instead of importing this package directly):
//
//	eng, _ := core.NewEngine(core.Config{PartitionDim: 16})
//	cal, _ := eng.Calibrate(ctx, field)                 // once per field kind
//	plan, _ := eng.Plan(ctx, field, cal, core.PlanOptions{AvgEB: 0.1})
//	cf, _ := eng.CompressAdaptive(ctx, field, plan)     // per snapshot
//	recon, _ := cf.Decompress(ctx)
//
// The static baseline (one error bound everywhere) is CompressStatic; the
// two paths share everything but the allocation, so their ratio difference
// is exactly the paper's claimed improvement.
//
// The engine is codec-agnostic: Config.Codec names a backend in the
// internal/codec registry ("sz" by default, "zfp" for the fixed-rate
// comparison), and everything downstream — calibration, planning, the in
// situ protocol, archives — runs through the codec interface.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/optimizer"
	"repro/internal/parallel"
)

// Config configures an Engine.
type Config struct {
	// PartitionDim is the cubic brick edge length (the paper uses 64 on
	// 512³ data; the benches default to 16 on 128³, the same 512-brick
	// layout at CI scale). Field dims must be divisible by it.
	PartitionDim int
	// Codec names the compression backend in the codec registry
	// (default codec.SZ, the paper's choice).
	Codec codec.ID
	// Mode is the error-bound semantics (default ABS, as required by the
	// paper's error control).
	Mode codec.Mode
	// Predictor forwards to prediction-based codecs (default Lorenzo3D).
	Predictor codec.Predictor
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// ClampFactor is the optimizer's error-bound box (default 4).
	ClampFactor float64
	// Strategy is the allocation strategy (default EqualDerivative).
	Strategy optimizer.Strategy
}

func (c Config) withDefaults() Config {
	if c.PartitionDim == 0 {
		c.PartitionDim = 16
	}
	if c.Codec == "" {
		c.Codec = codec.SZ
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ClampFactor == 0 {
		c.ClampFactor = 4
	}
	return c
}

// Validate checks the configuration. Rejections wrap apierr.ErrBadConfig.
func (c Config) Validate() error {
	if c.PartitionDim <= 0 {
		return fmt.Errorf("core: %w: partition dim %d must be positive", apierr.ErrBadConfig, c.PartitionDim)
	}
	if c.ClampFactor < 1 {
		return fmt.Errorf("core: %w: clamp factor %v must be ≥ 1", apierr.ErrBadConfig, c.ClampFactor)
	}
	return nil
}

// Engine is the adaptive configurator.
type Engine struct {
	cfg Config
	cdc codec.Codec
	// scratch pools per-worker compression state so the hot per-partition
	// paths allocate O(1) transient memory per snapshot.
	scratch sync.Pool
}

// NewEngine builds an engine, resolving the configured codec in the
// registry so an unknown backend fails here rather than mid-compression.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cdc, err := codec.Lookup(cfg.Codec)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, cdc: cdc}, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Codec returns the resolved compression backend.
func (e *Engine) Codec() codec.Codec { return e.cdc }

func (e *Engine) getScratch() *codec.Scratch {
	if s, ok := e.scratch.Get().(*codec.Scratch); ok {
		return s
	}
	return &codec.Scratch{}
}

func (e *Engine) putScratch(s *codec.Scratch) { e.scratch.Put(s) }

// partitioner builds the brick layout for a field.
func (e *Engine) partitioner(f *grid.Field3D) (*grid.Partitioner, error) {
	d := e.cfg.PartitionDim
	if f.Nx%d != 0 || f.Ny%d != 0 || f.Nz%d != 0 {
		return nil, fmt.Errorf("core: %w: field %s not divisible by partition dim %d", apierr.ErrBadConfig, f, d)
	}
	return grid.NewPartitioner(f.Nx, f.Ny, f.Nz, f.Nx/d, f.Ny/d, f.Nz/d)
}

// codecOptions builds compressor options at a given error bound. The
// engine never sets Options.Rate: it exists to *configure* bounds, so
// fixed-rate codecs must derive their rate from each partition's bound
// (plain fixed-rate compression is available on the codec interface
// directly).
func (e *Engine) codecOptions(eb float64) codec.Options {
	return codec.Options{
		Mode:       e.cfg.Mode,
		ErrorBound: eb,
		Predictor:  e.cfg.Predictor,
	}
}

// Plan is a chosen per-partition configuration for one field.
type Plan struct {
	// EBs[i] is partition i's error bound.
	EBs []float64
	// Features[i] is the rate-model predictor used for partition i.
	Features []float64
	// AvgEB is the quality budget the plan satisfies.
	AvgEB float64
	// Predicted carries the optimizer's model estimates.
	Predicted optimizer.Result
}

// PlanOptions selects the quality budget for planning.
type PlanOptions struct {
	// AvgEB is the average-error-bound budget (derive it with
	// SpectrumBudget or supply it directly).
	AvgEB float64
	// Halo optionally adds the halo-finder mass budget (density fields).
	Halo *optimizer.HaloConstraint
}

// Plan computes the adaptive per-partition error bounds for a field.
func (e *Engine) Plan(ctx context.Context, f *grid.Field3D, cal *Calibration, opt PlanOptions) (*Plan, error) {
	features, err := e.Features(ctx, f)
	if err != nil {
		return nil, err
	}
	return e.PlanFromFeatures(features, cal, opt)
}

// Features computes the per-partition rate-model predictor for a field
// (mean |value| per partition, in partition-ID order). Streaming callers
// extract features once per step to monitor drift and then hand them to
// PlanFromFeatures, so the field is scanned a single time. Cancellation is
// checked between partitions.
func (e *Engine) Features(ctx context.Context, f *grid.Field3D) ([]float64, error) {
	sc, err := e.ScanOwned(ctx, f, nil, nil)
	return sc.means, err
}

// FeatureScan is step 1's result: one rank's scan of the partitions it owns.
type FeatureScan struct {
	nParts int
	owned  []int // nil = every partition
	means  []float64
	cells  []int // nil without a halo budget
	hc     *optimizer.HaloConstraint
}

// ScanOwned scans the listed partitions of f in place (ascending IDs; nil
// means every partition): mean |value| and, when hc is set, the halo
// boundary-cell count of each. It is rank-local — the one data inspection
// the method needs. Cancellation is checked between partitions.
func (e *Engine) ScanOwned(ctx context.Context, f *grid.Field3D, owned []int, hc *optimizer.HaloConstraint) (FeatureScan, error) {
	p, err := e.partitioner(f)
	if err != nil {
		return FeatureScan{}, err
	}
	parts := p.Partitions()
	n := len(parts)
	if owned != nil {
		n = len(owned)
	}
	means := make([]float64, n)
	var cells []int
	var band grid.Band
	if hc != nil {
		band = grid.HaloBand(hc.TBoundary, hc.RefEB)
		cells = make([]int, n)
	}
	e.forEachPartition(ctx, n, func(j int, _ *codec.Scratch) {
		pi := j
		if owned != nil {
			pi = owned[j]
		}
		mean, inBand := grid.Scan(f, parts[pi], band)
		means[j] = mean
		if cells != nil {
			cells[j] = inBand
		}
	})
	if err := ctx.Err(); err != nil {
		return FeatureScan{}, fmt.Errorf("core: feature extraction: %w", err)
	}
	return FeatureScan{nParts: len(parts), owned: owned, means: means, cells: cells, hc: hc}, nil
}

// Gather is step 2: one allgather of (ID, mean[, cells]) tuples turns every
// rank's scan into the full feature vector (mean |value| per partition, in
// partition-ID order) plus, under a halo budget, the constraint with every
// partition's boundary cells filled in, ready for PlanOptions.Halo. The
// tuples arrive in rank order and are placed by ID, so the result does not
// depend on the rank layout. A nil communicator's scan already is the full
// vector; nothing is exchanged.
//
// Every partition must arrive exactly once — a missing, duplicate or
// out-of-range ID means the ranks disagree about ownership (mismatched
// configuration) and is rejected as apierr.ErrBadConfig rather than planned
// on. A dead peer surfaces as the transport's typed *apierr.RankFailedError.
func (sc FeatureScan) Gather(c *mpi.Comm) ([]float64, *optimizer.HaloConstraint, error) {
	means, cells := sc.means, sc.cells
	if c != nil {
		stride := 2
		if cells != nil {
			stride = 3
		}
		tuples := make([]float64, 0, stride*len(sc.owned))
		for j, pi := range sc.owned {
			tuples = append(tuples, float64(pi), sc.means[j])
			if cells != nil {
				tuples = append(tuples, float64(sc.cells[j]))
			}
		}
		all, err := c.AllgatherSlice(tuples)
		if err != nil {
			return nil, nil, err
		}
		if len(all) != stride*sc.nParts {
			return nil, nil, fmt.Errorf("core: %w: feature gather delivered %d values, want %d for %d partitions",
				apierr.ErrBadConfig, len(all), stride*sc.nParts, sc.nParts)
		}
		means = make([]float64, sc.nParts)
		if cells != nil {
			cells = make([]int, sc.nParts)
		}
		seen := make([]bool, sc.nParts)
		for i := 0; i < len(all); i += stride {
			id := all[i]
			if !(id >= 0 && id < float64(sc.nParts)) || id != math.Trunc(id) || seen[int(id)] {
				return nil, nil, fmt.Errorf("core: %w: feature gather: bad or duplicate partition id %v", apierr.ErrBadConfig, id)
			}
			pi := int(id)
			seen[pi] = true
			means[pi] = all[i+1]
			if cells != nil {
				cells[pi] = int(all[i+2])
			}
		}
	}
	if sc.hc == nil {
		return means, nil, nil
	}
	hc := *sc.hc
	hc.BoundaryCells = cells
	return means, &hc, nil
}

// PlanFromFeatures is Plan with the per-partition features already in hand
// (they must come from Features on a field of the same layout).
func (e *Engine) PlanFromFeatures(features []float64, cal *Calibration, opt PlanOptions) (*Plan, error) {
	if cal == nil || cal.Model == nil {
		return nil, fmt.Errorf("core: %w: nil calibration", apierr.ErrBadConfig)
	}
	if opt.AvgEB <= 0 {
		return nil, fmt.Errorf("core: %w: PlanOptions.AvgEB %g must be positive", apierr.ErrBadConfig, opt.AvgEB)
	}
	cfg := optimizer.Config{
		AvgEB:       opt.AvgEB,
		ClampFactor: e.cfg.ClampFactor,
		Strategy:    e.cfg.Strategy,
	}
	var res *optimizer.Result
	var err error
	if opt.Halo != nil {
		res, err = optimizer.AllocateWithHalo(cal.Model, features, cfg, *opt.Halo)
	} else {
		res, err = optimizer.Allocate(cal.Model, features, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Plan{EBs: res.EBs, Features: features, AvgEB: opt.AvgEB, Predicted: *res}, nil
}

// CompressedField is a field compressed partition-by-partition. Parts are
// codec-tagged frames; mixed-codec fields decode fine, but every frame an
// engine produces uses the engine's configured codec. One rank's share of a
// multi-rank world (CompressOwned) carries frames only for the partitions
// that rank owns; it becomes storable through ShardStepFields.
type CompressedField struct {
	Nx, Ny, Nz   int
	PartitionDim int
	// Codec records the backend that produced the partition frames.
	Codec       codec.ID
	Parts       []codec.Frame
	partitioner *grid.Partitioner
}

// CompressAdaptive compresses each partition with its planned error bound.
// Cancellation is checked between partitions, never mid-partition, so every
// frame that was produced is complete and bit-exact.
func (e *Engine) CompressAdaptive(ctx context.Context, f *grid.Field3D, plan *Plan) (*CompressedField, error) {
	return e.CompressOwned(ctx, f, plan, nil)
}

// CompressOwned is CompressAdaptive restricted to the listed partitions
// (ascending IDs; nil means every partition): one rank's share of a field
// whose plan every rank computed from the same gathered features. The
// frames are the ones CompressAdaptive produces for those partitions.
func (e *Engine) CompressOwned(ctx context.Context, f *grid.Field3D, plan *Plan, owned []int) (*CompressedField, error) {
	p, err := e.partitioner(f)
	if err != nil {
		return nil, err
	}
	if plan == nil || len(plan.EBs) != p.Count() {
		return nil, fmt.Errorf("core: %w: plan has %d bounds for %d partitions",
			apierr.ErrBadConfig, planLen(plan), p.Count())
	}
	for _, pi := range owned {
		if pi < 0 || pi >= p.Count() {
			return nil, fmt.Errorf("core: %w: owned partition %d outside [0,%d)", apierr.ErrBadConfig, pi, p.Count())
		}
	}
	return e.compressWith(ctx, f, p, owned, func(i int) float64 { return plan.EBs[i] })
}

// CompressStatic compresses every partition with the same bound — the
// paper's "traditional" baseline.
func (e *Engine) CompressStatic(ctx context.Context, f *grid.Field3D, eb float64) (*CompressedField, error) {
	if eb <= 0 {
		return nil, fmt.Errorf("core: %w: static error bound %g must be positive", apierr.ErrBadConfig, eb)
	}
	p, err := e.partitioner(f)
	if err != nil {
		return nil, err
	}
	return e.compressWith(ctx, f, p, nil, func(int) float64 { return eb })
}

func planLen(p *Plan) int {
	if p == nil {
		return 0
	}
	return len(p.EBs)
}

// compressWith is the one loop that hands partitions to the codec: the
// listed ones (nil = all), each at ebOf(partition ID).
func (e *Engine) compressWith(ctx context.Context, f *grid.Field3D, p *grid.Partitioner, owned []int, ebOf func(int) float64) (*CompressedField, error) {
	parts := p.Partitions()
	cf := &CompressedField{
		Nx: f.Nx, Ny: f.Ny, Nz: f.Nz,
		PartitionDim: e.cfg.PartitionDim,
		Codec:        e.cfg.Codec,
		Parts:        make([]codec.Frame, len(parts)),
		partitioner:  p,
	}
	n := len(parts)
	if owned != nil {
		n = len(owned)
	}
	var firstErr error
	var mu sync.Mutex
	e.forEachPartition(ctx, n, func(j int, s *codec.Scratch) {
		i := j
		if owned != nil {
			i = owned[j]
		}
		part := parts[i]
		data := e.brick(s, f, part)
		nx, ny, nz := part.Dims()
		// The codec retains neither the input nor the scratch past the
		// call, so the per-worker buffers are reused across partitions.
		c, err := codec.CompressCtx(ctx, e.cdc, data, nx, ny, nz, e.codecOptions(ebOf(i)), s)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("core: partition %d: %w", i, err)
			}
			mu.Unlock()
			return
		}
		cf.Parts[i] = c
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: compression: %w", err)
	}
	return cf, nil
}

// brick extracts partition data into the worker's scratch buffer.
func (e *Engine) brick(s *codec.Scratch, f *grid.Field3D, part grid.Partition) []float32 {
	if cap(s.Brick) < part.Len() {
		s.Brick = make([]float32, part.Len())
	}
	data := s.Brick[:part.Len()]
	grid.ExtractInto(data, f, part)
	return data
}

// forEachPartition fans partition indices out over the shared worker pool
// (internal/parallel); each participating goroutine — the caller plus any
// pool helpers, capped by Config.Workers — checks one scratch out of the
// engine pool for the duration. Drawing helpers from the process-wide pool
// keeps nested fan-outs (pipeline fields above, zfp blocks below) bounded
// at O(GOMAXPROCS) total workers instead of multiplying per level.
// Cancellation stops the index hand-out between partitions; partitions
// already started run to completion (callers check ctx.Err() afterwards).
func (e *Engine) forEachPartition(ctx context.Context, n int, fn func(i int, s *codec.Scratch)) {
	if n <= 1 || e.cfg.Workers <= 1 {
		s := e.getScratch()
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i, s)
		}
		e.putScratch(s)
		return
	}
	parallel.WorkersCtx(ctx, n, e.cfg.Workers, func(next func() (int, bool)) {
		s := e.getScratch()
		defer e.putScratch(s)
		for i, ok := next(); ok; i, ok = next() {
			fn(i, s)
		}
	})
}

// Decompress reconstructs the full field. Cancellation is checked between
// partitions.
func (cf *CompressedField) Decompress(ctx context.Context) (*grid.Field3D, error) {
	if cf.partitioner == nil {
		p, err := grid.NewPartitioner(cf.Nx, cf.Ny, cf.Nz,
			cf.Nx/cf.PartitionDim, cf.Ny/cf.PartitionDim, cf.Nz/cf.PartitionDim)
		if err != nil {
			return nil, err
		}
		cf.partitioner = p
	}
	parts := cf.partitioner.Partitions()
	if len(parts) != len(cf.Parts) {
		return nil, fmt.Errorf("core: %w: %d compressed parts for %d partitions",
			apierr.ErrCorruptArchive, len(cf.Parts), len(parts))
	}
	out := grid.NewField3D(cf.Nx, cf.Ny, cf.Nz)
	var firstErr error
	var mu sync.Mutex
	parallel.ForEachCtx(ctx, len(parts), 0, func(i int) {
		data, err := cf.Parts[i].Decompress()
		if err == nil {
			err = grid.Insert(out, parts[i], data)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("core: partition %d: %w", i, err)
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: decompression: %w", err)
	}
	return out, nil
}

// CompressedSize returns the total payload bytes of the frames present
// (all of them, except in one rank's share of a field).
func (cf *CompressedField) CompressedSize() int {
	var s int
	for _, p := range cf.Parts {
		if p != nil {
			s += p.CompressedSize()
		}
	}
	return s
}

// N returns the number of cells.
func (cf *CompressedField) N() int { return cf.Nx * cf.Ny * cf.Nz }

// Ratio returns the compression ratio vs fp32.
func (cf *CompressedField) Ratio() float64 {
	return float64(4*cf.N()) / float64(cf.CompressedSize())
}

// BitRate returns bits per value.
func (cf *CompressedField) BitRate() float64 {
	return float64(cf.CompressedSize()) * 8 / float64(cf.N())
}

// PartitionEBs returns the per-partition error bounds actually stored
// (0 for frames that carry no bound, e.g. fixed-rate codecs).
func (cf *CompressedField) PartitionEBs() []float64 {
	out := make([]float64, len(cf.Parts))
	for i, p := range cf.Parts {
		out[i] = p.ErrorBound()
	}
	return out
}

// MassFaultEstimate combines a plan with halo features to predict the
// halo-mass distortion of this compressed field (Eq. 11).
func MassFaultEstimate(tBoundary, refEB float64, boundaryCells []int, ebs []float64) (float64, error) {
	return model.MassFaultFromBoundaryCells(tBoundary, refEB, boundaryCells, ebs)
}
