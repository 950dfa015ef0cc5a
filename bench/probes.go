package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/adaptive"
	"repro/internal/codec"
	"repro/internal/fft"
	"repro/internal/huffman"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// Layer probes: one isolated measurement per layer on a fixed seeded field,
// the same in every traced run whatever the workload, so that a change to a
// layer shows as that layer's own row before it shows end to end. Each is
// the median of repeated calls; the codec ones are single-threaded
// whole-field baselines.

// timeIt calls f until budget is spent (at least three times) and returns
// the median call in seconds.
func timeIt(budget time.Duration, f func() error) (float64, error) {
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// probeBudget is how long each probe measures.
func probeBudget(sz sizes) time.Duration {
	if sz.Name == "toy" {
		return 2 * time.Millisecond
	}
	return 120 * time.Millisecond
}

func runProbes(cfg runConfig, layer map[string]float64) error {
	ctx := context.Background()
	budget := probeBudget(cfg.sz)
	n := cfg.sz.ProbeN

	t0 := time.Now()
	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: n, Seed: cfg.seed})
	if err != nil {
		return err
	}
	layer["nyx.generate_s"] = time.Since(t0).Seconds()
	f, err := snap.Field(adaptive.FieldBaryonDensity)
	if err != nil {
		return err
	}
	mb := float64(4*f.Len()) / 1e6
	// mbps records a throughput from a per-call time.
	mbps := func(name string, secs float64) { layer[name] = mb / secs }
	probe := func(name string, scale float64, fn func() error) error {
		secs, err := timeIt(budget, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		layer[name] = secs * scale
		return nil
	}

	// grid, model, optimizer through the facade.
	sys, err := adaptive.New(adaptive.WithPartitionDim(16))
	if err != nil {
		return err
	}
	var features []float64
	secs, err := timeIt(budget, func() (err error) { features, err = sys.Features(ctx, f); return })
	if err != nil {
		return err
	}
	mbps("grid.features_mbps", secs)
	var cal *adaptive.Calibration
	if err := probe("core.calibrate_ms", 1e3, func() (err error) { cal, err = sys.Calibrate(ctx, f); return }); err != nil {
		return err
	}
	eb := 0.1 * stats.MeanOf(features)
	if err := probe("optimizer.optimize_us", 1e6, func() error {
		_, err := sys.PlanFromFeatures(features, cal, adaptive.PlanOptions{AvgEB: eb})
		return err
	}); err != nil {
		return err
	}

	// Scaling: CompressAdaptive with every core against one worker.
	for _, id := range []string{"sz", "zfp"} {
		eff, err := scaleEfficiency(ctx, budget, id, f, eb)
		if err != nil {
			return err
		}
		layer["core.scale_eff."+id] = eff
	}

	// sz: predict + quantize + Huffman on the whole field, one thread.
	var szc *sz.Compressed
	secs, err = timeIt(budget, func() (err error) { szc, err = sz.Compress(f, sz.Options{Mode: sz.ABS, ErrorBound: eb}); return })
	if err != nil {
		return err
	}
	mbps("sz.compress_mbps", secs)
	layer["sz.bits_per_value"] = szc.BitRate()
	if secs, err = timeIt(budget, func() error { _, err := sz.Decompress(szc); return err }); err != nil {
		return err
	}
	mbps("sz.decompress_mbps", secs)
	var scan stats.PredScan
	if secs, err = timeIt(budget, func() error {
		scan.Reset()
		return sz.ScanResiduals(f.Data, f.Nx, f.Ny, f.Nz, sz.Lorenzo3D, &scan)
	}); err != nil {
		return err
	}
	mbps("sz.scan_mbps", secs)

	// zfp: fixed-rate transform coding, the splice, and the bounded search.
	var zc *zfp.Compressed
	if secs, err = timeIt(budget, func() (err error) { zc, err = zfp.Compress(f, zfp.Options{Rate: 8}); return }); err != nil {
		return err
	}
	mbps("zfp.compress_mbps", secs)
	if secs, err = timeIt(budget, func() error { _, err := zfp.Decompress(zc); return err }); err != nil {
		return err
	}
	mbps("zfp.decompress_mbps", secs)
	ix, err := zfp.CompressIndexed(f, zfp.Options{Rate: 16}, nil)
	if err != nil {
		return err
	}
	if err := probe("zfp.truncate_us", 1e6, func() error { _, err := ix.TruncateToRate(4, nil); return err }); err != nil {
		return err
	}
	zcodec, err := codec.Lookup(codec.ZFP)
	if err != nil {
		return err
	}
	var tel codec.Telemetry
	frame, err := zcodec.Compress(f.Data, f.Nx, f.Ny, f.Nz, codec.Options{Mode: codec.ABS, ErrorBound: eb, Telemetry: &tel}, nil)
	if err != nil {
		return err
	}
	layer["zfp.bits_per_value"] = frame.BitRate()
	layer["zfp.probes_per_field"] = float64(tel.Probes)

	// huffman: a geometric symbol stream shaped like SZ's residual codes.
	rng := stats.NewRNG(cfg.seed + 1)
	sym := make([]int, f.Len())
	for i := range sym {
		sym[i] = 32768 + int(math.Round(rng.NormFloat64()*2))
	}
	var hs huffman.Scratch
	var enc []byte
	if secs, err = timeIt(budget, func() (err error) { enc, err = huffman.CompressWith(sym, &hs); return }); err != nil {
		return err
	}
	layer["huffman.encode_mbps"] = float64(8*len(sym)) / 1e6 / secs
	enc = append([]byte(nil), enc...) // the scratch owns the encoder's buffer
	if secs, err = timeIt(budget, func() error { _, err := huffman.DecompressWith(enc, &hs); return err }); err != nil {
		return err
	}
	layer["huffman.decode_mbps"] = float64(8*len(sym)) / 1e6 / secs

	if err := probeCollectives(budget, layer); err != nil {
		return err
	}

	// server payload codec.
	var payload []byte
	if err := probe("server.payload_encode_us", 1e6, func() error { payload = adaptive.MarshalFieldPayload(f); return nil }); err != nil {
		return err
	}
	if err := probe("server.payload_decode_us", 1e6, func() error {
		_, err := adaptive.UnmarshalFieldPayload(payload, 1<<24)
		return err
	}); err != nil {
		return err
	}

	if err := probeArchive(cfg, f, layer); err != nil {
		return err
	}

	// analysis: the cost of the checks outside every timed window.
	if err := probe("spectrum.compute_ms", 1e3, func() error {
		_, err := adaptive.ComputeSpectrum(f, adaptive.SpectrumOptions{})
		return err
	}); err != nil {
		return err
	}
	if err := probe("fft.fft3d_ms", 1e3, func() error { _, err := fft.Forward3DField(f, 0); return err }); err != nil {
		return err
	}
	return probe("halo.find_ms", 1e3, func() error { _, err := adaptive.FindHalos(f, adaptive.DefaultHaloConfig()); return err })
}

// scaleEfficiency is CompressAdaptive throughput with all cores over
// nproc × its throughput with one worker.
func scaleEfficiency(ctx context.Context, budget time.Duration, id string, f *adaptive.Field, eb float64) (float64, error) {
	nproc := runtime.GOMAXPROCS(0)
	var secs [2]float64
	for i, workers := range []int{1, nproc} {
		sys, err := adaptive.New(adaptive.WithCodec(id), adaptive.WithPartitionDim(16), adaptive.WithWorkers(workers))
		if err != nil {
			return 0, err
		}
		cal, err := sys.Calibrate(ctx, f)
		if err != nil {
			return 0, err
		}
		plan, err := sys.Plan(ctx, f, cal, adaptive.PlanOptions{AvgEB: eb})
		if err != nil {
			return 0, err
		}
		if secs[i], err = timeIt(budget, func() error { _, err := sys.CompressAdaptive(ctx, f, plan); return err }); err != nil {
			return 0, err
		}
	}
	return secs[0] / secs[1] / float64(nproc), nil
}

// probeCollectives pings the two transports: the in-process world for
// contrast, and a two-rank world over loopback TCP.
func probeCollectives(budget time.Duration, layer map[string]float64) error {
	// Every rank must make the same calls, so the round count is fixed up
	// front instead of being timed out per rank.
	rounds := 200
	if budget < 10*time.Millisecond {
		rounds = 20
	}
	pingAll := func(t adaptive.Transport, out map[string]float64) error {
		vec := make([]float64, 64)
		for _, p := range []struct {
			name string
			call func() error
		}{
			{"barrier_us", t.Barrier},
			{"allreduce_us", func() error { _, err := t.Allreduce(1, mpi.OpSum); return err }},
			{"allgather_slice_us", func() error { _, err := t.AllgatherSlice(vec); return err }},
		} {
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if err := p.call(); err != nil {
					return err
				}
			}
			if out != nil {
				out[p.name] = float64(time.Since(t0).Microseconds()) / float64(rounds)
			}
		}
		return nil
	}
	inproc := map[string]float64{}
	if err := adaptive.RunWorld(2, func(t adaptive.Transport) error {
		if t.Rank() == 0 {
			return pingAll(t, inproc)
		}
		return pingAll(t, nil)
	}); err != nil {
		return fmt.Errorf("probe mpi: %w", err)
	}
	layer["mpi.barrier_us"] = inproc["barrier_us"]

	coord, err := adaptive.ListenCoordinator("127.0.0.1:0", 2, adaptive.NetConfig{})
	if err != nil {
		return err
	}
	defer coord.Close()
	tcp := map[string]float64{}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := adaptive.JoinWorld(coord.Addr(), r, 2, adaptive.NetConfig{})
			if err != nil {
				errs[r] = err
				return
			}
			defer t.Close()
			if r == 0 {
				errs[r] = pingAll(t, tcp)
			} else {
				errs[r] = pingAll(t, nil)
			}
			if errs[r] == nil {
				errs[r] = t.Barrier() // nobody closes while a peer still pings
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("probe mpinet: %w", err)
		}
	}
	for name, v := range tcp {
		layer["mpinet."+name] = v
	}
	return nil
}

// probeArchive measures the archive server's paths in isolation, on a
// fresh two-step store and straight through its handler (no wire).
func probeArchive(cfg runConfig, f *adaptive.Field, layer map[string]float64) error {
	dir, err := os.MkdirTemp(cfg.tmp, "probe-archive-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "p"+adaptive.ArchiveStreamSuffix)
	aw, err := adaptive.NewArchiveWriter(path, adaptive.ArchiveWriterOptions{PartitionDim: f.Nx / 2})
	if err != nil {
		return err
	}
	const steps = 8
	for s := 0; s < steps; s++ {
		if err := aw.WriteStep(map[string]adaptive.ArchiveFieldSpec{adaptive.FieldBaryonDensity: {Field: f}}); err != nil {
			aw.Close()
			return err
		}
	}
	if err := aw.Close(); err != nil {
		return err
	}
	get := func(srv *adaptive.ArchiveServer, step int, etag string) (*httptest.ResponseRecorder, float64) {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/archive/p/%d/%s?rate=4", step, adaptive.FieldBaryonDensity), nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.Handler().ServeHTTP(rec, req)
		return rec, float64(time.Since(t0)) / 1e6
	}
	open := func() (*adaptive.ArchiveServer, error) {
		return adaptive.NewArchiveServer(adaptive.ArchiveServerConfig{Dir: dir})
	}

	// Index build: with the sidecar gone the first open rescans the stream.
	if err := os.Remove(path + adaptive.ArchiveSidecarSuffix); err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := open()
	if err != nil {
		return err
	}
	rec, _ := get(srv, 0, "")
	layer["archiveserve.index_build_ms"] = float64(time.Since(t0)) / 1e6
	srv.Close()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("probe archive: first fetch after index rebuild: HTTP %d", rec.Code)
	}

	// Cold, hot and revalidating fetches of distinct steps on a fresh server.
	if srv, err = open(); err != nil {
		return err
	}
	defer srv.Close()
	var cold, hot, reval []float64
	for s := 0; s < steps; s++ {
		rec, ms := get(srv, s, "")
		cold = append(cold, ms)
		_, ms = get(srv, s, "")
		hot = append(hot, ms)
		rec, ms = get(srv, s, rec.Header().Get("ETag"))
		reval = append(reval, ms)
		if rec.Code != http.StatusNotModified {
			return fmt.Errorf("probe archive: revalidation returned HTTP %d", rec.Code)
		}
	}
	layer["archiveserve.cold_fetch_ms"] = median(cold)
	layer["archiveserve.hot_fetch_ms"] = median(hot)
	layer["archiveserve.revalidate_ms"] = median(reval)

	full := httptest.NewRecorder()
	srv.Handler().ServeHTTP(full, httptest.NewRequest(http.MethodGet, "/v1/archive/p/0/"+adaptive.FieldBaryonDensity, nil))
	secs, err := timeIt(probeBudget(cfg.sz), func() error {
		_, err := adaptive.SpliceArchiveField(full.Body.Bytes(), 4)
		return err
	})
	layer["archiveserve.splice_ms"] = secs * 1e3
	return err
}
