// Command loadgen drives a running adaptived with synthetic load: many
// concurrent clients posting Nyx-like fields for compression over h2c,
// measuring throughput (field-steps/sec), latency percentiles, and the
// backpressure/adaptation behavior (429 counts, final rate level). It is
// the CI smoke test for the service and the tool for ad-hoc load runs (the
// tracked numbers come from the bench/ harness).
//
// Each worker drives an adaptive.Client, so refused requests back off the
// way a real client would — capped exponential backoff with full jitter,
// honoring the server's Retry-After — instead of hammering a full queue.
// Success latencies therefore include any backoff spent getting the
// request accepted: they measure what a caller experiences, not one wire
// round-trip.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8323 -clients 1000 -duration 10s \
//	        [-dim 32] [-fields 4] [-tenants 8] [-retries 4] [-label adapt-on] \
//	        [-json runs.json] [-max-p99 2s]
//
// With -mode read it instead drives an archived server with an archive
// browse workload: steps are drawn from a Zipf distribution (hot recent
// snapshots dominate, like a real analysis portal), a browse fraction of
// requests fetches a low spliced rate while the rest pulls
// analysis-grade bytes, and revisits revalidate with If-None-Match. It
// reports read steps/sec, the server's cache hit ratio, and the 304
// share:
//
//	loadgen -mode read -url http://127.0.0.1:8324 -stream demo \
//	        -clients 64 -duration 10s [-browse-rate 4] [-analysis-rate 0] \
//	        [-browse-frac 0.8] [-zipf-s 1.3] [-json runs.json]
//
// With -json the results merge into the named file under -label (a
// "runs" map keyed by label). With -max-p99 the command exits non-zero when the successful
// requests' p99 exceeds the bound — the CI gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/adaptive"
)

type result struct {
	ok, rejected, circuit, failed uint64
	bytesOut, bytesIn             uint64
	lats                          []time.Duration
	maxLevel                      int
	counters                      adaptive.ClientCounters
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		url      = flag.String("url", "http://127.0.0.1:8323", "adaptived base URL")
		clients  = flag.Int("clients", 256, "concurrent clients")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		dim      = flag.Int("dim", 32, "field edge length (must divide the server's partition dim)")
		nFields  = flag.Int("fields", 4, "distinct fields per tenant (max 6)")
		tenants  = flag.Int("tenants", 8, "distinct tenants")
		seed     = flag.Uint64("seed", 7, "synthetic universe seed")
		conns    = flag.Int("conns", 16, "h2c connections to spread clients over (each multiplexes ~250 streams)")
		retries  = flag.Int("retries", 4, "max attempts per request (1 = no retries)")
		label    = flag.String("label", "", "label for the JSON report entry")
		jsonPath = flag.String("json", "", "merge results into this BENCH-style JSON file")
		maxP99   = flag.Duration("max-p99", 0, "exit non-zero when the success p99 exceeds this (0 = no gate)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-attempt timeout")

		mode       = flag.String("mode", "compress", "workload: compress (adaptived) or read (archived)")
		stream     = flag.String("stream", "demo", "archive stream to browse (read mode)")
		browseRate = flag.Float64("browse-rate", 4, "spliced rate for browse fetches (read mode)")
		analyRate  = flag.Float64("analysis-rate", 0, "rate for analysis fetches, 0 = stored bytes (read mode)")
		browseFrac = flag.Float64("browse-frac", 0.8, "fraction of fetches that browse vs analyze (read mode)")
		zipfS      = flag.Float64("zipf-s", 1.3, "Zipf exponent for step popularity (read mode)")
	)
	flag.Parse()

	if *mode == "read" {
		runRead(readConfig{
			url: *url, clients: *clients, duration: *duration, conns: *conns,
			retries: *retries, timeout: *timeout, label: *label, jsonPath: *jsonPath,
			maxP99: *maxP99, stream: *stream, browseRate: *browseRate,
			analysisRate: *analyRate, browseFrac: *browseFrac, zipfS: *zipfS, seed: *seed,
		})
		return
	}

	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: *dim, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	names := adaptive.FieldNames()
	if *nFields < 1 || *nFields > len(names) {
		log.Fatalf("-fields must be 1..%d", len(names))
	}
	names = names[:*nFields]
	fields := make(map[string]*adaptive.Field, len(names))
	payloadBytes := make(map[string]uint64, len(names))
	for _, name := range names {
		f, err := snap.Field(name)
		if err != nil {
			log.Fatal(err)
		}
		fields[name] = f
		payloadBytes[name] = uint64(len(adaptive.MarshalFieldPayload(f)))
	}

	// One h2c connection caps out around 250 concurrent streams, and Go's
	// transport queues the excess client-side — which would measure the
	// client's own throttle, not the server's backpressure. A pool of
	// transports (one connection each) lets the configured client count
	// actually reach the service.
	if *conns < 1 {
		*conns = 1
	}
	pool := make([]*http.Client, *conns)
	for i := range pool {
		pool[i] = &http.Client{Transport: adaptive.NewH2CTransport()}
	}
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	results := make([]result, *clients)
	var logOnce sync.Once
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			tenant := fmt.Sprintf("tenant-%02d", c%*tenants)
			cl, err := adaptive.NewClient(*url,
				adaptive.WithTenant(tenant),
				adaptive.WithHTTPClient(pool[c%len(pool)]),
				adaptive.WithRetries(*retries, 0, 0),
				adaptive.WithAttemptTimeout(*timeout),
			)
			if err != nil {
				log.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; time.Now().Before(deadline); i++ {
				name := names[(c+i)%len(names)]
				t0 := time.Now()
				res, err := cl.Compress(ctx, name, fields[name])
				lat := time.Since(t0)
				switch {
				case err == nil:
					r.ok++
					r.bytesOut += payloadBytes[name]
					r.bytesIn += uint64(len(res.Archive))
					r.lats = append(r.lats, lat)
					if res.RateLevel > r.maxLevel {
						r.maxLevel = res.RateLevel
					}
				case errors.Is(err, adaptive.ErrOverloaded) || errors.Is(err, adaptive.ErrDraining):
					// Refused and still refused after every backoff the
					// client was allowed: genuine sustained backpressure.
					r.rejected++
				case errors.Is(err, adaptive.ErrCircuitOpen):
					r.circuit++
				default:
					r.failed++
					logOnce.Do(func() { log.Printf("request failed: %v", err) })
				}
			}
			r.counters = cl.Counters()
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var total result
	var ctr adaptive.ClientCounters
	var lats []time.Duration
	for i := range results {
		total.ok += results[i].ok
		total.rejected += results[i].rejected
		total.circuit += results[i].circuit
		total.failed += results[i].failed
		total.bytesOut += results[i].bytesOut
		total.bytesIn += results[i].bytesIn
		lats = append(lats, results[i].lats...)
		if results[i].maxLevel > total.maxLevel {
			total.maxLevel = results[i].maxLevel
		}
		ctr.Attempts += results[i].counters.Attempts
		ctr.Retries += results[i].counters.Retries
		ctr.Rejected += results[i].counters.Rejected
		ctr.CircuitOpen += results[i].counters.CircuitOpen
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}
	p50, p99 := pct(0.50), pct(0.99)
	stepsPerSec := float64(total.ok) / elapsed.Seconds()
	ratio := 0.0
	if total.bytesIn > 0 {
		ratio = float64(total.bytesOut) / float64(total.bytesIn)
	}

	log.Printf("%d clients for %v: %d ok (%.1f steps/sec), %d gave up overloaded, %d circuit-open, %d failed",
		*clients, elapsed.Round(time.Millisecond), total.ok, stepsPerSec, total.rejected, total.circuit, total.failed)
	log.Printf("resilience: %d attempts, %d retries, %d refusals seen (429/503), %d breaker fail-fasts",
		ctr.Attempts, ctr.Retries, ctr.Rejected, ctr.CircuitOpen)
	log.Printf("latency p50 %v p99 %v; aggregate ratio %.2fx; max rate level seen %d",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), ratio, total.maxLevel)

	if *jsonPath != "" {
		if *label == "" {
			log.Fatal("-json requires -label")
		}
		entry := map[string]any{
			"recorded_at":     time.Now().UTC().Format(time.RFC3339),
			"goos":            runtime.GOOS,
			"goarch":          runtime.GOARCH,
			"clients":         *clients,
			"tenants":         *tenants,
			"field_dim":       *dim,
			"duration_sec":    elapsed.Seconds(),
			"ok":              total.ok,
			"rejected":        total.rejected,
			"circuit_open":    total.circuit,
			"failed":          total.failed,
			"attempts":        ctr.Attempts,
			"retries":         ctr.Retries,
			"rejections_seen": ctr.Rejected,
			"steps_per_sec":   stepsPerSec,
			"latency_p50_ms":  float64(p50) / float64(time.Millisecond),
			"latency_p99_ms":  float64(p99) / float64(time.Millisecond),
			"compress_ratio":  ratio,
			"max_rate_level":  total.maxLevel,
		}
		if err := mergeJSON(*jsonPath, *label, entry); err != nil {
			log.Fatal(err)
		}
		log.Printf("merged run %q into %s", *label, *jsonPath)
	}

	if *maxP99 > 0 && (total.ok == 0 || p99 > *maxP99) {
		log.Fatalf("p99 %v exceeds the %v gate (or nothing succeeded)", p99, *maxP99)
	}
}

type readConfig struct {
	url                      string
	clients, conns, retries  int
	duration, timeout        time.Duration
	label, jsonPath          string
	maxP99                   time.Duration
	stream                   string
	browseRate, analysisRate float64
	browseFrac, zipfS        float64
	seed                     uint64
}

type readResult struct {
	ok, notModified, cacheHits, failed uint64
	bytesIn                            uint64
	lats                               []time.Duration
}

// runRead drives an archived server with a Zipf browse/analysis mix and
// per-client revalidation, then reports read throughput and cache
// behavior.
func runRead(cfg readConfig) {
	probe, err := adaptive.NewClient(cfg.url, adaptive.WithRetries(cfg.retries, 0, 0))
	if err != nil {
		log.Fatal(err)
	}
	m, err := probe.FetchManifest(context.Background(), cfg.stream)
	if err != nil {
		log.Fatalf("manifest for %q: %v", cfg.stream, err)
	}
	var zfpFields []string
	for _, f := range m.Fields {
		if f.Progressive {
			zfpFields = append(zfpFields, f.Name)
		}
	}
	if len(zfpFields) == 0 {
		log.Fatalf("stream %q has no progressive fields to browse", cfg.stream)
	}
	if cfg.conns < 1 {
		cfg.conns = 1
	}
	pool := make([]*http.Client, cfg.conns)
	for i := range pool {
		pool[i] = &http.Client{Transport: adaptive.NewH2CTransport()}
	}

	deadline := time.Now().Add(cfg.duration)
	results := make([]readResult, cfg.clients)
	var wg sync.WaitGroup
	var logOnce sync.Once
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			cl, err := adaptive.NewClient(cfg.url,
				adaptive.WithHTTPClient(pool[c%len(pool)]),
				adaptive.WithRetries(cfg.retries, 0, 0),
				adaptive.WithAttemptTimeout(cfg.timeout),
			)
			if err != nil {
				log.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(cfg.seed) + int64(c)))
			// Zipf over steps: newest snapshots are the hot ones, so rank 0
			// maps to the last step.
			zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(m.Steps-1))
			etags := make(map[string]string)
			ctx := context.Background()
			for time.Now().Before(deadline) {
				step := m.Steps - 1 - int(zipf.Uint64())
				opt := adaptive.ArchiveFetchOptions{Rate: cfg.analysisRate}
				if rng.Float64() < cfg.browseFrac {
					opt.Rate = cfg.browseRate
				}
				field := zfpFields[rng.Intn(len(zfpFields))]
				key := fmt.Sprintf("%d/%s/%g", step, field, opt.Rate)
				opt.ETag = etags[key]
				t0 := time.Now()
				res, err := cl.FetchField(ctx, cfg.stream, step, field, opt)
				lat := time.Since(t0)
				if err != nil {
					r.failed++
					logOnce.Do(func() { log.Printf("read failed: %v", err) })
					continue
				}
				r.ok++
				r.lats = append(r.lats, lat)
				if res.NotModified {
					r.notModified++
				} else {
					r.bytesIn += uint64(len(res.Body))
					etags[key] = res.ETag
				}
				if res.CacheHit {
					r.cacheHits++
				}
			}
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var total readResult
	var lats []time.Duration
	for i := range results {
		total.ok += results[i].ok
		total.notModified += results[i].notModified
		total.cacheHits += results[i].cacheHits
		total.failed += results[i].failed
		total.bytesIn += results[i].bytesIn
		lats = append(lats, results[i].lats...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}
	p50, p99 := pct(0.50), pct(0.99)
	stepsPerSec := float64(total.ok) / elapsed.Seconds()

	st, err := probe.ArchiveStats(context.Background())
	if err != nil {
		log.Fatalf("archive stats: %v", err)
	}
	hitRatio := 0.0
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		hitRatio = float64(st.Cache.Hits) / float64(lookups)
	}
	log.Printf("%d readers for %v: %d ok (%.1f steps/sec), %d revalidated (304), %d failed",
		cfg.clients, elapsed.Round(time.Millisecond), total.ok, stepsPerSec, total.notModified, total.failed)
	log.Printf("server cache: %.1f%% hit ratio (%d hits / %d misses / %d evictions), %d splices, %d merged flights",
		100*hitRatio, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Splices, st.Cache.SingleflightMerged)
	log.Printf("latency p50 %v p99 %v; %.1f MiB served",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), float64(total.bytesIn)/(1<<20))

	if cfg.jsonPath != "" {
		if cfg.label == "" {
			log.Fatal("-json requires -label")
		}
		entry := map[string]any{
			"recorded_at":     time.Now().UTC().Format(time.RFC3339),
			"goos":            runtime.GOOS,
			"goarch":          runtime.GOARCH,
			"mode":            "read",
			"clients":         cfg.clients,
			"stream_steps":    m.Steps,
			"duration_sec":    elapsed.Seconds(),
			"ok":              total.ok,
			"not_modified":    total.notModified,
			"failed":          total.failed,
			"steps_per_sec":   stepsPerSec,
			"cache_hit_ratio": hitRatio,
			"splices":         st.Splices,
			"latency_p50_ms":  float64(p50) / float64(time.Millisecond),
			"latency_p99_ms":  float64(p99) / float64(time.Millisecond),
			"bytes_served":    total.bytesIn,
		}
		if err := mergeJSON(cfg.jsonPath, cfg.label, entry); err != nil {
			log.Fatal(err)
		}
		log.Printf("merged run %q into %s", cfg.label, cfg.jsonPath)
	}
	if cfg.maxP99 > 0 && (total.ok == 0 || p99 > cfg.maxP99) {
		log.Fatalf("p99 %v exceeds the %v gate (or nothing succeeded)", p99, cfg.maxP99)
	}
}

// mergeJSON upserts runs[label] in a BENCH-style trajectory file.
func mergeJSON(path, label string, entry map[string]any) error {
	doc := map[string]any{
		"description": "adaptived service load benchmark (cmd/loadgen); steps/sec and latencies are machine-dependent, compare labels from the same machine only.",
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not JSON: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	runs, _ := doc["runs"].(map[string]any)
	if runs == nil {
		runs = make(map[string]any)
	}
	runs[label] = entry
	doc["runs"] = runs
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
