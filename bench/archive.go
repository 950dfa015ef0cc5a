package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/adaptive"
)

// archive-read: archived's fetch path. The stream is stored once at the
// maximum rate; readers ask for rate rungs that the server splices out of
// the stored bits and keeps in a byte-budgeted cache sized below the working
// set, so index lookup, splice and cache all work and nothing is compressed.
// Closed loop: generator and server share the machine's cores, so an open
// loop's backlog would measure the scheduler.

const (
	arcStream = "bench"
	// arcCacheShare sizes the representation cache against the working
	// set of (step, field, rung) bodies: hot steps stay, the tail splices.
	arcCacheShare = 0.30
	arcZipfS      = 1.1
	arcDecodeOne  = 16 // every sixteenth body is ZFP-decoded in the loop
)

var (
	arcFields = []string{adaptive.FieldBaryonDensity, adaptive.FieldVelocityX}
	arcRungs  = []float64{4, 8, 0} // 0 = the stored max-rate bytes
)

type arcKey struct{ step, field, rung int }

type arcEnv struct {
	dir   string
	steps []map[string]*adaptive.Field
	refs  map[arcKey][]byte // SpliceArchiveField references, built in set-up
	// tol[field][rung] bounds the max-abs error a decoded body may show:
	// fixed-rate ZFP promises none, so it is twice the worst seen on the
	// first, middle and last step of the stream.
	tol  [][]float64
	srv  *adaptive.ArchiveServer
	lb   *loopback
	pool connPool
	mw   *timingHandler
}

func setupArchive(cfg runConfig) (*arcEnv, error) {
	steps, err := materialise(adaptive.SynthStreamParams{
		Base:  adaptive.SynthParams{N: cfg.sz.ArcN, Seed: cfg.seed},
		Steps: cfg.sz.ArcSteps, DriftPerStep: 0.01, Fields: arcFields,
	})
	if err != nil {
		return nil, err
	}
	e := &arcEnv{steps: steps, refs: map[arcKey][]byte{}}
	if e.dir, err = os.MkdirTemp(cfg.tmp, "archive-*"); err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, arcStream+adaptive.ArchiveStreamSuffix)
	// PartitionDim is the brick edge: eight bricks per field.
	aw, err := adaptive.NewArchiveWriter(path, adaptive.ArchiveWriterOptions{PartitionDim: cfg.sz.ArcN / 2})
	if err != nil {
		e.close()
		return nil, err
	}
	for _, snap := range steps {
		specs := map[string]adaptive.ArchiveFieldSpec{}
		for name, f := range snap {
			specs[name] = adaptive.ArchiveFieldSpec{Field: f}
		}
		if err := aw.WriteStep(specs); err != nil {
			aw.Close()
			e.close()
			return nil, err
		}
	}
	if err := aw.Close(); err != nil {
		e.close()
		return nil, err
	}
	working, err := e.buildRefs(path)
	if err != nil {
		e.close()
		return nil, err
	}
	if err := e.buildTolerances(); err != nil {
		e.close()
		return nil, err
	}
	e.srv, err = adaptive.NewArchiveServer(adaptive.ArchiveServerConfig{Dir: e.dir, CacheBytes: int64(arcCacheShare * float64(working))})
	if err != nil {
		e.close()
		return nil, err
	}
	h := e.srv.Handler()
	if cfg.trace {
		e.mw = &timingHandler{next: h, name: "archiveserve.handler"}
		h = e.mw
	}
	if e.lb, err = serveLoopback(h); err != nil {
		e.close()
		return nil, err
	}
	e.pool = newConnPool()
	// Warm-up fills the cache to its steady mix and opens the connections.
	warm := newOutcome()
	e.drive(context.Background(), cfg, warm, nil, fixedWindow(cfg.sz.ArcWarm))
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	return e, nil
}

func (e *arcEnv) close() {
	if e.pool != nil {
		e.pool.close()
	}
	if e.lb != nil {
		e.lb.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	os.RemoveAll(e.dir)
}

// buildRefs reads every stored field archive out of the stream file and
// splices every rung locally. It returns the working set's size in bytes.
func (e *arcEnv) buildRefs(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	sr, err := adaptive.OpenStream(f, fi.Size())
	if err != nil {
		return 0, err
	}
	var working int64
	for s := 0; s < sr.Steps(); s++ {
		layout, err := sr.StepLayout(s)
		if err != nil {
			return 0, err
		}
		for _, fl := range layout {
			fidx := slices.Index(arcFields, fl.Name)
			stored := make([]byte, fl.ArchiveLength)
			if _, err := f.ReadAt(stored, fl.ArchiveOffset); err != nil {
				return 0, err
			}
			for r, rate := range arcRungs {
				body := stored
				if rate > 0 {
					if body, err = adaptive.SpliceArchiveField(stored, rate); err != nil {
						return 0, err
					}
				}
				e.refs[arcKey{s, fidx, r}] = body
				working += int64(len(body))
			}
		}
	}
	return working, nil
}

func (e *arcEnv) buildTolerances() error {
	e.tol = make([][]float64, len(arcFields))
	last := len(e.steps) - 1
	for fidx, name := range arcFields {
		e.tol[fidx] = make([]float64, len(arcRungs))
		for r := range arcRungs {
			for _, s := range []int{0, last / 2, last} {
				worst, err := decodeErr(e.refs[arcKey{s, fidx, r}], e.steps[s][name])
				if err != nil {
					return err
				}
				e.tol[fidx][r] = max(e.tol[fidx][r], 2*worst)
			}
		}
	}
	return nil
}

// decodeErr parses and decodes a served body and returns its max-abs error.
func decodeErr(body []byte, orig *adaptive.Field) (float64, error) {
	cf, err := adaptive.ParseArchive(body)
	if err != nil {
		return 0, err
	}
	recon, err := cf.Decompress(context.Background())
	if err != nil {
		return 0, err
	}
	return maxAbsErr(orig, recon), nil
}

// drive runs every reader's closed loop for the length of the window. A reader
// draws a step from Zipf (newest hottest), a field and a rung; on a revisit
// it revalidates with If-None-Match half the time. Every body is compared
// with the local splice; every sixteenth is also decoded.
func (e *arcEnv) drive(ctx context.Context, cfg runConfig, o *outcome, tr *tracer, w *window) {
	parts := make([]*outcome, cfg.sz.ArcReaders)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newOutcome()
			parts[c] = p
			cl, err := adaptive.NewClient(e.lb.URL, adaptive.WithHTTPClient(e.pool[c%len(e.pool)]), adaptive.WithAttemptTimeout(30*time.Second))
			if err != nil {
				p.fail("reader %d: %v", c, err)
				return
			}
			rng := rand.New(rand.NewSource(int64(cfg.seed)*1000 + int64(c)))
			zipf := rand.NewZipf(rng, arcZipfS, 1, uint64(len(e.steps)-1))
			etags := map[arcKey]string{}
			bodies := 0
			for done := 0; w.more(done); done++ {
				key := arcKey{len(e.steps) - 1 - int(zipf.Uint64()), rng.Intn(len(arcFields)), rng.Intn(len(arcRungs))}
				opt := adaptive.ArchiveFetchOptions{Rate: arcRungs[key.rung]}
				if tag, seen := etags[key]; seen && rng.Intn(2) == 0 {
					opt.ETag = tag
				}
				p.attempted++
				id := tr.begin("client.fetch", c<<20|done, -1)
				t0 := time.Now()
				res, err := cl.FetchField(ctx, arcStream, key.step, arcFields[key.field], opt)
				lat := time.Since(t0)
				tr.end(id)
				if err == nil {
					err = e.check(key, opt, res, &bodies)
				}
				if err != nil {
					p.fail("reader %d step %d %s rate %g: %v", c, key.step, arcFields[key.field], opt.Rate, err)
					continue
				}
				etags[key] = res.ETag
				p.op(w, lat)
				if done < cfg.sz.ArcRatioOps && !res.NotModified {
					p.rawBytes += 4 * int64(e.steps[key.step][arcFields[key.field]].Len())
					p.outBytes += int64(len(res.Body))
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		o.absorb(p)
	}
}

// check verifies one fetch. bodies counts this reader's full responses.
func (e *arcEnv) check(key arcKey, opt adaptive.ArchiveFetchOptions, res *adaptive.ArchiveFetchResult, bodies *int) error {
	if opt.ETag != "" {
		if !res.NotModified {
			return fmt.Errorf("revalidation with a current ETag returned a body")
		}
		return nil
	}
	if res.NotModified {
		return fmt.Errorf("304 without If-None-Match")
	}
	if !bytes.Equal(res.Body, e.refs[key]) {
		return fmt.Errorf("body differs from SpliceArchiveField (%d vs %d bytes)", len(res.Body), len(e.refs[key]))
	}
	*bodies++
	if *bodies%arcDecodeOne != 0 {
		return nil
	}
	worst, err := decodeErr(res.Body, e.steps[key.step][arcFields[key.field]])
	if err != nil {
		return err
	}
	if tol := e.tol[key.field][key.rung]; !(worst <= tol) {
		return fmt.Errorf("decoded max error %g above tolerance %g", worst, tol)
	}
	return nil
}

func runArchive(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	env, times, err := repeatSetup(cfg.sz, func() (*arcEnv, error) { return setupArchive(cfg) }, (*arcEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.setup = times
	ctx := context.Background()
	share := 1.0
	if cfg.trace {
		share = 0.5
	}
	w := cfg.window(share, cfg.sz.ArcRatioOps, cfg.sz.ArcReaders)
	a0 := totalAlloc()
	env.drive(ctx, cfg, o, nil, w)
	o.allocs = totalAlloc() - a0
	o.counts["fetches"] = len(o.lats)

	if cfg.trace {
		env.tracedWindow(ctx, cfg, o)
	}

	// Decode window: rate-8 bodies of the newest steps, decoded and held
	// against the tolerance, the way an analysis client consumes them.
	o.decodeRoundFields = len(arcFields) // a round is one step
	runtime.GC()                         // a short window should not inherit the timed window's heap
	for round := 0; round < cfg.sz.ArcDecodeRounds; round++ {
		failed := o.failed
		t0 := time.Now()
		for field, name := range arcFields {
			key := arcKey{len(env.steps) - 1 - round%len(env.steps), field, 1}
			o.attempted++
			worst, err := decodeErr(env.refs[key], env.steps[key.step][name])
			if err == nil && !(worst <= env.tol[field][key.rung]) {
				err = fmt.Errorf("decoded max error %g above tolerance %g", worst, env.tol[field][key.rung])
			}
			if err != nil {
				o.fail("decode step %d %s: %v", key.step, name, err)
			}
		}
		if o.failed == failed {
			o.decodeRoundMs = append(o.decodeRoundMs, float64(time.Since(t0))/1e6)
		}
	}
	return o, nil
}

// tracedWindow is the second half of a traced run: handler middleware,
// client spans, and the server's own cache and splice counters.
func (e *arcEnv) tracedWindow(ctx context.Context, cfg runConfig, o *outcome) {
	tr := newTracer()
	before := e.srv.Stats()
	e.mw.tr.Store(tr)
	traced := newOutcome()
	w := cfg.window(0.5, 1, cfg.sz.ArcReaders)
	e.drive(ctx, cfg, traced, tr, w)
	e.mw.tr.Store(nil)
	after := e.srv.Stats()
	o.attempted += traced.attempted
	o.failed += traced.failed
	o.problems = append(o.problems, traced.problems...)

	var requests, notModified, served float64
	for name, t := range after.Tiers {
		b := before.Tiers[name]
		requests += float64(t.Requests - b.Requests)
		notModified += float64(t.NotModified - b.NotModified)
		served += float64(t.BytesServed - b.BytesServed)
	}
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	handlerMs := tr.durationsMs("archiveserve.handler")
	sort.Float64s(handlerMs)
	clientMs := tr.durationsMs("client.fetch")
	sort.Float64s(clientMs)
	l := o.layer
	l["archiveserve.cache_hit_ratio"] = hits / (hits + misses)
	l["archiveserve.splices"] = float64(after.Splices - before.Splices)
	l["archiveserve.not_modified_share"] = notModified / requests
	l["archiveserve.bytes_per_fetch"] = served / requests
	l["client.wire_ms_p50"] = percentile(clientMs, 50) - percentile(handlerMs, 50)
	l["pipeline.trace_overhead_pct"] = 100 * (sliceRate(o.ends)/sliceRate(traced.ends) - 1)
	o.counts["traced_fetches"] = len(traced.lats)
	o.spans = tr
}
