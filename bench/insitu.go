package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/adaptive"
	"repro/internal/parallel"
)

// insitu-sz and insitu-zfp: the paper's path. One System compresses an
// evolving two-field snapshot stream step by step into a real file, then a
// decode window reads the last steps back and checks every cell against the
// planned per-partition bound.

var insituFields = []string{adaptive.FieldBaryonDensity, adaptive.FieldVelocityX}

const (
	insituBrick = 16
	insituWarm  = 2 // steps before the window opens; the first one calibrates
)

// stepRec remembers, for one step written to the file, which materialised
// step it came from and the calibration each field was planned with, so the
// decode window can rebuild the exact plan the opaque Step used.
type stepRec struct {
	src  int
	cals map[string]*adaptive.Calibration
}

type insituEnv struct {
	steps []map[string]*adaptive.Field
	file  *os.File
	sw    *adaptive.StreamWriter
	sys   *adaptive.System
	avgEB map[string]float64
	recs  []stepRec
	// recals and fallbacks count rate-model refits and refits that fell
	// back to the probe ladder, over every opaque step.
	recals, fallbacks int
}

func setupInsitu(cfg runConfig, codec string) (*insituEnv, error) {
	steps, err := materialise(adaptive.SynthStreamParams{
		Base:  adaptive.SynthParams{N: cfg.sz.InsituN, Seed: cfg.seed},
		Steps: cfg.sz.InsituSteps, DriftPerStep: 0.01, Fields: insituFields,
	})
	if err != nil {
		return nil, err
	}
	file, err := os.CreateTemp(cfg.tmp, "insitu-*.acs")
	if err != nil {
		return nil, err
	}
	e := &insituEnv{steps: steps, file: file, avgEB: map[string]float64{}}
	if e.sw, err = adaptive.NewStreamWriter(file); err != nil {
		e.close()
		return nil, err
	}
	// The density budget comes from the paper's power-spectrum criterion;
	// the velocity keeps the pipeline's relative default.
	budget, err := densityBudget(steps[0][adaptive.FieldBaryonDensity])
	if err != nil {
		e.close()
		return nil, err
	}
	e.sys, err = adaptive.New(adaptive.WithCodec(codec), adaptive.WithPartitionDim(insituBrick),
		adaptive.WithStreamWriter(e.sw), adaptive.WithFieldBudget(adaptive.FieldBaryonDensity, budget))
	if err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < insituWarm; i++ {
		if _, err := e.step(context.Background(), i); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	return e, nil
}

func (e *insituEnv) close() {
	e.file.Close()
	os.Remove(e.file.Name())
}

// step is one opaque op: System.Step on the i-th ping-pong snapshot.
func (e *insituEnv) step(ctx context.Context, i int) (*adaptive.StepStats, error) {
	src := pingPong(i, len(e.steps))
	st, err := e.sys.Step(ctx, e.steps[src])
	if err != nil {
		return nil, err
	}
	rec := stepRec{src: src, cals: map[string]*adaptive.Calibration{}}
	for _, fs := range st.Fields {
		cal := e.sys.Calibration(fs.Name)
		rec.cals[fs.Name] = cal
		e.avgEB[fs.Name] = fs.AvgEB
		if fs.Recalibrated {
			e.recals++
			if cal.FellBack {
				e.fallbacks++
			}
		}
	}
	e.recs = append(e.recs, rec)
	return st, nil
}

// tracedStep drives the same op as its public layer calls, one span around
// each: per field (concurrently, as Step runs them) Features →
// PlanFromFeatures → CompressAdaptive, then one WriteStep. It returns the
// per-field |predicted − achieved| / achieved bit-rate gaps.
func (e *insituEnv) tracedStep(ctx context.Context, tr *tracer, i int) ([]float64, error) {
	src := pingPong(i, len(e.steps))
	snap := e.steps[src]
	root := tr.begin("pipeline.step", i, -1)
	var (
		mu       sync.Mutex
		firstErr error
		gaps     []float64
		fields   = map[string]*adaptive.CompressedField{}
		rec      = stepRec{src: src, cals: map[string]*adaptive.Calibration{}}
	)
	// Fields fan out over the program's shared worker pool exactly as Step
	// fans them out; free goroutines would oversubscribe the cores.
	parallel.ForEachCtx(ctx, len(insituFields), runtime.GOMAXPROCS(0), func(fi int) {
		name := insituFields[fi]
		f, cal := snap[name], e.sys.Calibration(name)
		s := tr.begin("grid.features", i, root)
		features, err := e.sys.Features(ctx, f)
		tr.end(s)
		var plan *adaptive.Plan
		if err == nil {
			s = tr.begin("optimizer.optimize", i, root)
			plan, err = e.sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: e.avgEB[name]})
			tr.end(s)
		}
		var cf *adaptive.CompressedField
		if err == nil {
			s = tr.begin("core.compress", i, root)
			cf, err = e.sys.CompressAdaptive(ctx, f, plan)
			tr.end(s)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("field %s: %w", name, err)
			}
			return
		}
		fields[name], rec.cals[name] = cf, cal
		if got := cf.BitRate(); got > 0 {
			gaps = append(gaps, math.Abs(plan.Predicted.PredictedBitRate-got)/got)
		}
	})
	if firstErr != nil {
		tr.end(root)
		return nil, firstErr
	}
	s := tr.begin("core.archive_write", i, root)
	err := e.sw.WriteStep(fields)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	e.recs = append(e.recs, rec)
	return gaps, nil
}

// planBounds rebuilds the per-partition bounds one recorded step was
// compressed with. ZFP frames do not store their bound, so the plan is the
// only place it exists; SZ goes the same way to keep one check.
func (e *insituEnv) planBounds(ctx context.Context, rec stepRec) (map[string][]float64, error) {
	out := map[string][]float64{}
	for name, cal := range rec.cals {
		features, err := e.sys.Features(ctx, e.steps[rec.src][name])
		if err != nil {
			return nil, err
		}
		plan, err := e.sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: e.avgEB[name]})
		if err != nil {
			return nil, err
		}
		out[name] = plan.EBs
	}
	return out, nil
}

func runInsitu(cfg runConfig, codec string) (*outcome, error) {
	o := newOutcome()
	env, times, err := repeatSetup(cfg.sz,
		func() (*insituEnv, error) { return setupInsitu(cfg, codec) }, (*insituEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.setup = times
	ctx := context.Background()

	// compression_ratio covers one full ping-pong cycle, which every
	// window reaches, so it repeats exactly whatever the window's length.
	cycle := 2 * (len(env.steps) - 1)
	share := 1.0
	if cfg.trace {
		share = 0.5
	}
	next := insituWarm
	w := cfg.window(share, cycle, 1)
	a0 := totalAlloc()
	for done := 0; w.more(done); done++ {
		o.attempted++
		t0 := time.Now()
		st, err := env.step(ctx, next)
		lat := time.Since(t0)
		next++
		if err != nil {
			o.fail("step %d: %v", next-1, err)
			continue
		}
		o.op(w, lat)
		if done < cycle {
			o.rawBytes += 4 * st.Cells
			o.outBytes += st.Bytes
		}
	}
	o.allocs = totalAlloc() - a0
	o.counts["steps"] = len(o.lats)

	if cfg.trace {
		if err := env.tracedWindow(ctx, cfg, o, next); err != nil {
			return nil, err
		}
	}
	if err := env.sw.Close(); err != nil {
		return nil, err
	}
	env.decodeWindow(ctx, cfg, o, insituWarm+cycle-1)
	return o, nil
}

// tracedWindow is the second half of a traced run: decomposed steps, and
// the layer metrics their spans give.
func (e *insituEnv) tracedWindow(ctx context.Context, cfg runConfig, o *outcome, next int) error {
	tr := newTracer()
	var gaps []float64
	w := cfg.window(0.5, 1, 1)
	var ends []float64
	for steps := 0; w.more(steps); steps++ {
		g, err := e.tracedStep(ctx, tr, next+steps)
		if err != nil {
			return fmt.Errorf("traced step: %w", err)
		}
		gaps = append(gaps, g...)
		ends = append(ends, time.Since(w.start).Seconds())
	}
	o.counts["traced_steps"] = len(ends)

	sum := tr.summary()
	features, optimize := sum["grid.features"], sum["optimizer.optimize"]
	compress, write := sum["core.compress"], sum["core.archive_write"]
	work := features.TotalMs + optimize.TotalMs + compress.TotalMs + write.TotalMs
	opaque, decomposed := median(o.lats), median(tr.durationsMs("pipeline.step"))
	l := o.layer
	l["grid.features_share"] = features.TotalMs / work
	l["core.plan_ms"] = (features.TotalMs + optimize.TotalMs) / float64(compress.Count)
	l["core.compress_ms"] = compress.TotalMs / float64(compress.Count)
	l["core.compress_share"] = compress.TotalMs / work
	l["core.archive_write_ms"] = write.TotalMs / float64(write.Count)
	l["core.overhead_ratio"] = (features.TotalMs + optimize.TotalMs) / compress.TotalMs
	l["model.rate_err_pct"] = 100 * mean(gaps)
	l["model.recalibrations"] = float64(e.recals)
	l["model.fallbacks"] = float64(e.fallbacks)
	// What Step does besides calling its layers (drift monitor, residual
	// tracking, stats): opaque minus decomposed. Coverage outside
	// [0.9, 1.1] means the decomposition no longer mirrors Step.
	l["pipeline.step_self_ms"] = opaque - decomposed
	l["pipeline.trace_coverage"] = decomposed / opaque
	l["pipeline.trace_overhead_pct"] = 100 * (sliceRate(o.ends)/sliceRate(ends) - 1)
	o.spans = tr
	return nil
}

// decodeWindow is the same layers used the other way: open the stream,
// decode the last steps, hold every cell against its partition's bound.
// spectrumStep names the file step the paper's power-spectrum criterion is
// evaluated on (the last op of the ratio prefix, so it too repeats exactly).
func (e *insituEnv) decodeWindow(ctx context.Context, cfg runConfig, o *outcome, spectrumStep int) {
	fi, err := e.file.Stat()
	if err != nil {
		o.fail("stat stream: %v", err)
		return
	}
	first := max(len(e.recs)-cfg.sz.InsituDecode, 0)
	bounds := map[int]map[string][]float64{}
	for s := first; s < len(e.recs); s++ {
		if bounds[s], err = e.planBounds(ctx, e.recs[s]); err != nil {
			o.fail("rebuilding plan of step %d: %v", s, err)
			return
		}
	}
	sr, err := adaptive.OpenStream(e.file, fi.Size())
	if err != nil {
		o.fail("open stream: %v", err)
		return
	}
	if sr.Steps() != len(e.recs) {
		o.fail("stream holds %d steps, %d were written", sr.Steps(), len(e.recs))
		return
	}
	var decodeMs []float64
	o.decodeRoundFields = len(insituFields) // a round is one step
	runtime.GC()                            // a short window should not inherit the timed window's heap
	for s := first; s < len(e.recs); s++ {
		failed := o.failed
		t0 := time.Now()
		fields, err := sr.ReadStep(s)
		if err != nil {
			o.fail("read step %d: %v", s, err)
			continue
		}
		for _, name := range insituFields {
			o.attempted++
			t1 := time.Now()
			recon, err := fields[name].Decompress(ctx)
			decodeMs = append(decodeMs, float64(time.Since(t1))/1e6)
			if err == nil {
				err = checkBounds(e.steps[e.recs[s].src][name], recon, insituBrick, bounds[s][name])
			}
			if err != nil {
				o.fail("step %d field %s: %v", s, name, err)
			}
		}
		if o.failed == failed {
			o.decodeRoundMs = append(o.decodeRoundMs, float64(time.Since(t0))/1e6)
		}
	}
	o.layer["core.decode_ms"] = mean(decodeMs)
	o.layer["core.archive_bytes_per_step"] = float64(fi.Size()) / float64(len(e.recs))

	if spectrumStep < len(e.recs) {
		checkSpectrum(ctx, o, sr, spectrumStep, e.steps[e.recs[spectrumStep].src][adaptive.FieldBaryonDensity])
	}
}
