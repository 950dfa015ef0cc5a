package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/adaptive"
	"repro/internal/stats"
)

// service-write: adaptived's compress path. Small fields make payload
// decode, the tenant queues, deficit-round-robin batching, serialization
// and the wire the majority of an op and the codec the minority. The load
// is a closed loop because the callers are simulation ranks that wait for
// the archive before moving on; eight waiters are what lets a batch form.

const svcBrick = 16

type svcEnv struct {
	sys     *adaptive.System
	srv     *adaptive.Server
	lb      *loopback
	pool    connPool
	mw      *timingHandler // mounted in a traced run only
	clients []*adaptive.Client
	kinds   []string
	fields  [][]*adaptive.Field       // [tenant][kind]
	cals    [][]*adaptive.Calibration // the direct engine path's fits
	refs    [][][]byte                // the engine's direct output, same indexing
}

// engineDirect is the server's compress job without the server: the calls
// pipeline.Driver makes for a field it sees for the first time, or again.
func engineDirect(ctx context.Context, sys *adaptive.System, f *adaptive.Field, cal *adaptive.Calibration) ([]byte, *adaptive.Calibration, error) {
	features, err := sys.Features(ctx, f)
	if err != nil {
		return nil, nil, err
	}
	if cal == nil {
		if cal, err = sys.Calibrate(ctx, f); err != nil {
			return nil, nil, err
		}
	}
	// The driver's default budget: a tenth of the mean feature.
	plan, err := sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: 0.1 * stats.MeanOf(features)})
	if err != nil {
		return nil, nil, err
	}
	cf, err := sys.CompressAdaptive(ctx, f, plan)
	if err != nil {
		return nil, nil, err
	}
	return cf.Bytes(), cal, nil
}

func setupService(cfg runConfig) (*svcEnv, error) {
	ctx := context.Background()
	e := &svcEnv{kinds: adaptive.FieldNames()[:4]}
	var err error
	// Adaptation stays off (the ServerConfig zero value), so every
	// response is a pure function of its field and can be held against
	// the engine's direct output byte for byte.
	if e.sys, err = adaptive.New(adaptive.WithPartitionDim(svcBrick)); err != nil {
		return nil, err
	}
	for t := 0; t < cfg.sz.SvcTenants; t++ {
		snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: cfg.sz.SvcN, Seed: cfg.seed*64 + uint64(t) + 1})
		if err != nil {
			return nil, err
		}
		var fields []*adaptive.Field
		var cals []*adaptive.Calibration
		var refs [][]byte
		for _, kind := range e.kinds {
			f, err := snap.Field(kind)
			if err != nil {
				return nil, err
			}
			ref, cal, err := engineDirect(ctx, e.sys, f, nil)
			if err != nil {
				return nil, fmt.Errorf("reference for tenant %d %s: %w", t, kind, err)
			}
			fields, cals, refs = append(fields, f), append(cals, cal), append(refs, ref)
		}
		e.fields, e.cals, e.refs = append(e.fields, fields), append(e.cals, cals), append(e.refs, refs)
	}
	if e.srv, err = e.sys.NewServer(adaptive.ServerConfig{}); err != nil {
		return nil, err
	}
	h := e.srv.Handler()
	if cfg.trace {
		e.mw = &timingHandler{next: h, name: "server.handler"}
		h = e.mw
	}
	if e.lb, err = serveLoopback(h); err != nil {
		e.close()
		return nil, err
	}
	e.pool = newConnPool()
	for c := 0; c < cfg.sz.SvcClients; c++ {
		cl, err := adaptive.NewClient(e.lb.URL,
			adaptive.WithTenant(fmt.Sprintf("tenant-%02d", c%cfg.sz.SvcTenants)),
			adaptive.WithHTTPClient(e.pool[c%len(e.pool)]),
			adaptive.WithAttemptTimeout(30*time.Second))
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	// Warm-up: every client sends each kind once, which fits every
	// (tenant, field) rate model and opens every connection.
	warm := newOutcome()
	e.drive(ctx, cfg, warm, nil, fixedWindow(len(e.kinds)))
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	return e, nil
}

func (e *svcEnv) close() {
	if e.pool != nil {
		e.pool.close()
	}
	if e.lb != nil {
		e.lb.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// drive runs every client's closed loop for the length of the window, checks each
// response against the engine's direct output, and folds results into o.
func (e *svcEnv) drive(ctx context.Context, cfg runConfig, o *outcome, tr *tracer, w *window) {
	cycle := 4 * len(e.kinds) // the ratio prefix, per client
	parts := make([]*outcome, len(e.clients))
	var wg sync.WaitGroup
	for c, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newOutcome()
			parts[c] = p
			t := c % cfg.sz.SvcTenants
			for done := 0; w.more(done); done++ {
				k := (c + done) % len(e.kinds)
				f := e.fields[t][k]
				p.attempted++
				id := tr.begin("client.compress", c<<20|done, -1)
				t0 := time.Now()
				res, err := cl.Compress(ctx, e.kinds[k], f)
				lat := time.Since(t0)
				tr.end(id)
				switch {
				case err != nil:
					p.fail("client %d %s: %v", c, e.kinds[k], err)
					continue
				case !bytes.Equal(res.Archive, e.refs[t][k]):
					p.fail("client %d %s: response differs from the engine's direct output (%d vs %d bytes)",
						c, e.kinds[k], len(res.Archive), len(e.refs[t][k]))
					continue
				}
				p.op(w, lat)
				if done < cycle {
					p.rawBytes += 4 * int64(f.Len())
					p.outBytes += int64(len(res.Archive))
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		o.absorb(p)
	}
}

func runService(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	env, times, err := repeatSetup(cfg.sz, func() (*svcEnv, error) { return setupService(cfg) }, (*svcEnv).close)
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
	cycle := 4 * len(env.kinds)
	w := cfg.window(share, cycle, len(env.clients))
	a0 := totalAlloc()
	env.drive(ctx, cfg, o, nil, w)
	o.allocs = totalAlloc() - a0
	o.counts["compress_requests"] = len(o.lats)

	if cfg.trace {
		env.tracedWindow(ctx, cfg, o)
	}
	env.decodeWindow(ctx, cfg, o)
	return o, nil
}

// tracedWindow is the second half of a traced run: the handler middleware
// and a client-side span around each request, the server's own counters,
// and the same fields through the engine directly for contrast.
func (e *svcEnv) tracedWindow(ctx context.Context, cfg runConfig, o *outcome) {
	tr := newTracer()
	before := e.srv.Stats()
	var retries0 uint64
	for _, cl := range e.clients {
		retries0 += cl.Counters().Retries
	}
	e.mw.tr.Store(tr)
	traced := newOutcome()
	w := cfg.window(0.5, 1, len(e.clients))
	e.drive(ctx, cfg, traced, tr, w)
	e.mw.tr.Store(nil)
	after := e.srv.Stats()
	o.attempted += traced.attempted
	o.failed += traced.failed
	o.problems = append(o.problems, traced.problems...)

	var engineMs []float64
	for rep := 0; rep < 4; rep++ {
		for t := range e.fields {
			for k, f := range e.fields[t] {
				id := tr.begin("server.engine_direct", -1, -1)
				_, _, err := engineDirect(ctx, e.sys, f, e.cals[t][k])
				tr.end(id)
				if err != nil {
					o.fail("engine direct: %v", err)
				}
			}
		}
	}
	engineMs = tr.durationsMs("server.engine_direct")
	sort.Float64s(engineMs)
	handlerMs := tr.durationsMs("server.handler")
	sort.Float64s(handlerMs)
	clientMs := tr.durationsMs("client.compress")
	sort.Float64s(clientMs)

	var retries uint64
	for _, cl := range e.clients {
		retries += cl.Counters().Retries
	}
	batches := float64(after.Batches - before.Batches)
	l := o.layer
	l["server.handler_ms_p50"] = percentile(handlerMs, 50)
	l["server.engine_ms_p50"] = percentile(engineMs, 50)
	// Queue wait + batch formation + serialization: what the service adds
	// around the engine for one request.
	l["server.overhead_ms_p50"] = l["server.handler_ms_p50"] - l["server.engine_ms_p50"]
	l["server.batches"] = batches
	l["server.jobs_per_batch"] = float64(after.Served-before.Served) / batches
	l["server.rejected"] = float64(after.Rejected - before.Rejected)
	l["client.wire_ms_p50"] = percentile(clientMs, 50) - l["server.handler_ms_p50"]
	l["client.retries"] = float64(retries - retries0)
	l["pipeline.trace_overhead_pct"] = 100 * (sliceRate(o.ends)/sliceRate(traced.ends) - 1)
	o.counts["traced_requests"] = len(traced.lats)
	o.spans = tr
}

// decodeWindow reads responses back the way a rank would on restart: parse
// the archive, decode it, hold every cell against the bound in its frame.
// Responses were verified equal to the references, so those are decoded.
func (e *svcEnv) decodeWindow(ctx context.Context, cfg runConfig, o *outcome) {
	o.decodeRoundFields = len(e.refs) * len(e.kinds)
	runtime.GC() // a short window should not inherit the timed window's heap
	for round := 0; round < cfg.sz.SvcDecodeRounds; round++ {
		failed := o.failed
		t0 := time.Now()
		for t := range e.refs {
			for k := range e.kinds {
				o.attempted++
				cf, err := adaptive.ParseArchive(e.refs[t][k])
				var recon *adaptive.Field
				if err == nil {
					recon, err = cf.Decompress(ctx)
				}
				if err == nil {
					err = checkBounds(e.fields[t][k], recon, svcBrick, cf.PartitionEBs())
				}
				if err != nil {
					o.fail("decode tenant %d %s: %v", t, e.kinds[k], err)
				}
			}
		}
		if o.failed == failed {
			o.decodeRoundMs = append(o.decodeRoundMs, float64(time.Since(t0))/1e6)
		}
	}
}
